import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from partialmix.classnet import fixed_kernel, fixed_share_kernel
from partialmix.environment import (
    BernoulliArm,
    CompetitorSpec,
    ConstantFeedback,
    EnvironmentError_,
    FeedbackProcess,
    IIDLosses,
    LossProcess,
    PiecewiseLosses,
    ScriptedFeedback,
    ScriptedLosses,
    UniformArm,
    _layer_dp,
    bandit_feedback,
    best_competitor,
    full_feedback_process,
    resolve_competitor,
    run_game,
)
from partialmix.feedback import (
    FeedbackMatrix,
    full_feedback,
    identity_feedback,
    observation_probabilities,
)
from partialmix import environment, learner
from partialmix.learner import LearnerConfig, ZeroObservationProbabilityError


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
                loss_oracle(int(np.flatnonzero(indicators == 0)[0]))  # one index, as an int
            return result

        monkeypatch.setattr(environment, "step", peeking_step)
        losses = IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0))
        with pytest.raises(RuntimeError, match="unrevealed loss at round 3"):
            run_game(bandit_config(3), losses, bandit_feedback(3), 5, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.5])
    def test_losses_outside_the_range_abort_the_game(self, bad):
        class OneBadLoss(LossProcess):
            def generate(self, horizon, rng):
                out = np.full((horizon, self.n_experts), 0.5)
                out[horizon // 2, 1] = bad
                return out

        with pytest.raises(EnvironmentError_, match="outside its declared range"):
            run_game(bandit_config(3), OneBadLoss(3, (0.0, 1.0)), bandit_feedback(3), 10, seed=0)

    def test_o_follows_the_matrices_played(self):
        # a process may answer differently on each call: identity for its
        # first `horizon` calls, full feedback after, so two games on one
        # instance play identity and then full feedback; each round's o_min
        # must come from the matrix that round played
        m, horizon = 3, 8

        class TurnsFull(FeedbackProcess):
            n_experts = m

            def __init__(self):
                self.played = []

            def matrix_at(self, t):
                full = len(self.played) >= horizon
                self.played.append(full_feedback(m) if full else identity_feedback(m))
                return self.played[-1]

        process = TurnsFull()
        losses = IIDLosses([UniformArm(0, 1)] * m, (0.0, 1.0))
        for game in range(2):
            tr = run_game(bandit_config(m), losses, process, horizon, seed=game)
            played = process.played[-horizon:]
            for i, matrix in enumerate(played):
                o = observation_probabilities(matrix, tr.q[i])
                assert tr.o_min[i].tobytes() == o[o.argmin()].tobytes()

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


def transcript_bytes(tr):
    """Every array column of a transcript, as bytes."""
    return {k: (v.dtype, v.tobytes()) for k, v in vars(tr).items() if isinstance(v, np.ndarray)}


class TestLossOracle:
    """The learner reads a round's revealed losses with one oracle query:
    an int when the round reveals one loss (the selection under identity
    feedback), the revealed index array otherwise."""

    def test_one_query_per_round_at_the_revealed_indices(self, monkeypatch):
        from partialmix import environment

        real_step = environment.step
        queries = []

        def recording_step(state, config, matrix, loss_oracle, rng):
            queries.append([])

            def oracle(observed):
                queries[-1].append(observed)
                return loss_oracle(observed)

            return real_step(state, config, matrix, oracle, rng)

        monkeypatch.setattr(environment, "step", recording_step)
        rng = np.random.default_rng(3)
        strict = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(3)) for _ in range(3)]))
        feedback = ScriptedFeedback([identity_feedback(3), strict, full_feedback(3)] * 30)
        losses = IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0))
        tr = run_game(bandit_config(3), losses, feedback, 90, seed=2)
        assert len(queries) == 90
        reveals = set()
        for t, (observed,) in enumerate(queries):  # exactly one query a round
            at = np.flatnonzero(tr.indicators[t])
            if t % 3 == 0:
                assert observed == tr.selected[t]
            if len(at) == 1:
                assert type(observed) is int and observed == at[0]
            else:
                assert observed.tolist() == at.tolist()
            reveals.add((t % 3, len(at)))
        # strict rounds reveal zero to three losses, and an empty array is still a query
        assert {(0, 1), (1, 0), (1, 1), (1, 2), (2, 3)} <= reveals

    @pytest.mark.parametrize(
        "peek",
        [
            lambda indicators: np.arange(3),
            lambda indicators: slice(None),
            lambda indicators: np.flatnonzero(indicators == 0)[0],  # an np.int64
        ],
        ids=["array", "slice", "int64"],
    )
    def test_reading_unrevealed_losses_by_any_index_aborts_the_game(self, peek, monkeypatch):
        from partialmix import environment

        real_step = environment.step

        def peeking_step(state, config, matrix, loss_oracle, rng):
            result = real_step(state, config, matrix, loss_oracle, rng)
            if state.t == 3:  # every peek includes a hidden loss
                loss_oracle(peek(result[2]))
            return result

        monkeypatch.setattr(environment, "step", peeking_step)
        losses = IIDLosses([UniformArm(0, 1)] * 3, (0.0, 1.0))
        with pytest.raises(RuntimeError, match="unrevealed loss at round 3"):
            run_game(bandit_config(3), losses, bandit_feedback(3), 5, seed=0)

    def test_one_reveal_at_zero_observation_probability_raises(self):
        config = bandit_config(2)
        state = learner.init_state(config)
        ctx = learner.prepare_round(state, config, identity_feedback(2))
        ctx = ctx._replace(o=np.array([0.0, 1.0]))
        with pytest.raises(ZeroObservationProbabilityError, match="expert 0 was observed"):
            learner.finish_round(state, config, ctx, 0, 0.4)
        with pytest.raises(ZeroObservationProbabilityError, match="expert 0 was observed"):
            learner.finish_round(state, config, ctx, np.array([0]), np.array([0.4]))


class TestStoredEstimates:
    """Every stored estimate is its definition, ``(loss - psi_t) / o_t[m]``
    with ``o_t`` recomputed from the round's ``q``."""

    KINDS = ["bandit", "full", "dirichlet", "permutation"]

    @staticmethod
    def game(kind):
        m = 2 if kind == "permutation" else 4
        rng = np.random.default_rng(21)
        matrix = {
            "bandit": lambda: identity_feedback(m),
            "full": lambda: full_feedback(m),
            "dirichlet": lambda: FeedbackMatrix(
                np.vstack([rng.dirichlet(np.ones(m)) for _ in range(m)])
            ),
            # reveals the loss of the expert not selected
            "permutation": lambda: FeedbackMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        }[kind]()
        config = LearnerConfig(kernel=fixed_share_kernel(m, 0.02), w_budget=3.0)
        losses = IIDLosses([UniformArm(0, 1)] * m, (0.0, 1.0))
        return run_game(config, losses, ConstantFeedback(matrix), 300, seed=4), matrix

    @staticmethod
    def definition(tr, matrix):
        rows = []
        for t in range(tr.horizon):
            o = observation_probabilities(matrix, tr.q[t])
            at = np.flatnonzero(tr.indicators[t])
            rows.append((tr.losses[t, at] - tr.psi[t]) / o[at])
        return np.concatenate(rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_stored_estimate_is_its_definition(self, kind):
        tr, matrix = self.game(kind)
        assert (tr.phi_revealed > 0.0).any()
        assert self.definition(tr, matrix).tobytes() == tr.phi_revealed.tobytes()

    def test_an_estimate_wrong_on_two_rounds_in_three_fails_it(self, monkeypatch):
        real = learner.estimate
        rounds = itertools.count()

        def wrong(observed, revealed, o, psi_new):
            phi = real(observed, revealed, o, psi_new)
            return phi if next(rounds) % 3 == 0 else phi * 1.5

        monkeypatch.setattr(learner, "estimate", wrong)
        for kind in self.KINDS:
            tr, matrix = self.game(kind)
            assert self.definition(tr, matrix).tobytes() != tr.phi_revealed.tobytes()


class TestRevealPaths:
    """A round that reveals one loss reads it on a scalar path. The same
    game with the learner forced onto the general index-array path every
    round, and with the identity mark taken off its matrices, writes the
    same bytes."""

    @staticmethod
    def unmarked(matrix):
        copy = FeedbackMatrix(matrix.entries, matrix.mode)
        object.__setattr__(copy, "_identity", False)
        return copy

    @staticmethod
    def signed_zero_losses(m, horizon, rng):
        # round 1's +0.0 losses set psi to +0.0, so a later -0.0 loss
        # gives a -0.0 estimate
        values = rng.uniform(size=(horizon, m))
        values[rng.random((horizon, m)) < 0.3] = 0.0
        values[rng.random((horizon, m)) < 0.3] = -0.0
        values[0] = 0.0
        return ScriptedLosses(values, (0.0, 1.0))

    @pytest.mark.parametrize(
        "case", ["m1", "m2", "m5", "strict_rounds", "signed_zeros_m1", "signed_zeros_m3"]
    )
    def test_both_paths_write_the_same_transcript(self, case, monkeypatch):
        m = {"m1": 1, "m5": 5, "signed_zeros_m1": 1, "signed_zeros_m3": 3}.get(case, 2)
        horizon, rng = 200, np.random.default_rng(31)
        losses = (self.signed_zero_losses(m, horizon, rng) if case.startswith("signed")
                  else IIDLosses([UniformArm(0, 1)] * m, (0.0, 1.0)))
        matrices = [identity_feedback(m)] * horizon
        if case == "strict_rounds":  # every third round reveals each loss with probability 1/2
            half = FeedbackMatrix(np.full((2, 2), 0.5))
            matrices = [half if t % 3 == 2 else matrices[t] for t in range(horizon)]
        config = LearnerConfig(kernel=fixed_share_kernel(m, 0.05 if m > 1 else 0.0), w_budget=2.0)
        scalar_rounds = [0]
        real_update_rate = learner.update_rate

        def recording_update_rate(state, phi, p, config, observed=None):
            scalar_rounds[-1] += isinstance(observed, int)
            return real_update_rate(state, phi, p, config, observed)

        def general_path(matrix, selected, indicators):
            return indicators.nonzero()[0]

        monkeypatch.setattr(learner, "update_rate", recording_update_rate)
        scalar = run_game(config, losses, ScriptedFeedback(matrices), horizon, 7)
        monkeypatch.setattr(learner, "revealed_indices", general_path)
        scalar_rounds.append(0)
        unmarked = [self.unmarked(x) if x._identity else x for x in matrices]
        general = run_game(config, losses, ScriptedFeedback(unmarked), horizon, 7)
        reveals = scalar.indicators.sum(axis=1)
        assert scalar_rounds == [int((reveals == 1).sum()), 0]
        assert transcript_bytes(scalar) == transcript_bytes(general)
        if case == "strict_rounds":  # strict rounds reveal none, one and two losses
            assert {0, 1, 2} <= set(reveals[2::3].tolist())
        if case.startswith("signed"):
            estimates = scalar.phi_revealed
            assert (np.signbit(estimates) & (estimates == 0.0)).any()
            assert (~np.signbit(estimates) & (estimates == 0.0)).any()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("m", [4, 256])  # the two benchmark widths
    def test_non_finite_losses_rejected(self, m, bad):
        losses = np.full((10, m), 0.5)
        losses[4, m - 1] = bad
        with pytest.raises(EnvironmentError_, match="must be finite"):
            best_competitor(losses, fixed_kernel(m), 2)

    # budgets near T at M = 4, and the wide-switching-run shape
    @pytest.mark.parametrize("m, horizon, k", [(4, 200, 199), (4, 600, 599), (256, 3000, 2)])
    def test_narrow_dp_keeps_near_one_byte_per_cell(self, m, horizon, k):
        # the switch mask is one byte per (round, budget, arm); the source
        # arm of each (round, budget) is one more byte below 257 experts,
        # a quarter of the mask at M = 4; the block buffers and the carried
        # last row of each budget are small
        losses = np.random.default_rng(3).uniform(size=(horizon, m))
        tracemalloc.start()
        try:
            _layer_dp(losses, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * horizon * k * m

    @pytest.mark.parametrize(
        "losses",
        [
            np.array([[1.0, 0], [0, 1], [1, 0]]),  # narrower than the kernel
            np.zeros((3, 5)),  # wider
            np.zeros((0, 4)),  # no round
            np.zeros(4),
            np.zeros((2, 2, 4)),
        ],
        ids=["narrow", "wide", "no-round", "1-d", "3-d"],
    )
    def test_malformed_losses_rejected(self, losses):
        with pytest.raises(EnvironmentError_, match="rounds by 4 experts"):
            best_competitor(losses, fixed_kernel(4), 1)

    @pytest.mark.parametrize("budget", [-1, True, False, 1.0, "2", None])
    def test_switch_budget_must_be_a_nonnegative_int(self, budget):
        with pytest.raises(EnvironmentError_, match="switch budget"):
            best_competitor(np.eye(3), fixed_kernel(3), budget)

    def test_numpy_integer_budget(self):
        losses = np.random.default_rng(4).uniform(size=(20, 3))
        got = best_competitor(losses, fixed_kernel(3), np.int64(2))
        np.testing.assert_array_equal(got.experts, best_competitor(losses, fixed_kernel(3), 2).experts)

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
    """The k-switch DP as a plain round-by-round fold: one numpy call per
    (round, budget) step, with the switch from the best arm of budget
    ``j - 1`` to itself ruled out. Kept here as the differential reference
    for ``best_competitor``."""
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


# mid-width games, an odd and an even expert count
WIDE_ODD, WIDE_EVEN = 47, 48


@st.composite
def k_switch_games(draw, elements):
    """A (T, M) loss matrix, a switch budget, and the DP's block size in
    cells; 7 and 64 put block edges inside these short games."""
    horizon, m = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    losses = draw(arrays(np.float64, (horizon, m), elements=elements))
    return losses, draw(st.integers(0, 5)), draw(st.sampled_from([7, 64, 1 << 12]))


class TestBestCompetitorDifferential:
    """The DP against the reference, on continuous losses and on small
    integers, where equal totals are common and the tie rules (lowest arm,
    then smallest budget) decide the path. Blocks hold 2^12 cells, so 1,024
    rounds at M = 4, 13 at M = 300, 2 at M = 2048 and 1 at M = 4096."""

    @staticmethod
    def losses(kind, horizon, m, seed):
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            return rng.uniform(size=(horizon, m))
        return rng.integers(0, 3, size=(horizon, m)).astype(float)

    def check(self, losses, k):
        got = best_competitor(losses, fixed_kernel(losses.shape[1]), k)
        np.testing.assert_array_equal(got.experts, reference_best_path(losses, k))

    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    @pytest.mark.parametrize(
        "horizon, m, k",
        [
            (1, 1, 0), (1, 4, 3), (1, WIDE_EVEN, 2),  # one round
            (7, 1, 3), (40, 1, 0),  # one expert
            (60, 4, 0), (60, WIDE_EVEN, 0),  # no switch
            (6, 3, 10), (6, WIDE_EVEN, 5), (6, WIDE_ODD, 6),  # budget at or past T - 1
            (300, 2, 1), (300, 4, 2), (200, 7, 5),
            (120, WIDE_ODD, 2), (120, WIDE_EVEN, 2), (80, 64, 3),
            (60, 256, 2), (40, 300, 3),  # source arms past 255
            (200, 300, 2), (104, 300, 3), (105, 300, 3),  # 13-round blocks
            (4096, 4, 2), (4097, 4, 2),  # whole blocks, and one round more
            (9, 2048, 2), (9, 4096, 2),  # blocks of two rounds and of one
        ],
    )
    def test_matches_reference(self, kind, horizon, m, k):
        self.check(self.losses(kind, horizon, m, seed=horizon * 1000 + m * 10 + k), k)

    def test_block_sizes_of_the_cases_above(self):
        assert [environment._DP_BLOCK_CELLS // m for m in (4, 300, 2048, 4096)] == [1024, 13, 2, 1]

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(k_switch_games(st.integers(0, 3).map(float)))
    def test_integer_losses_take_the_reference_path(self, game):
        losses, k, cells = game
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(environment, "_DP_BLOCK_CELLS", cells)
            self.check(losses, k)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(k_switch_games(st.floats(0.0, 1.0)))
    def test_float_losses_reach_the_reference_optimum(self, game):
        # totals within rounding of the cumulative losses may tie either way
        losses, k, cells = game
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(environment, "_DP_BLOCK_CELLS", cells)
            got = best_competitor(losses, fixed_kernel(losses.shape[1]), k)
        rounds = np.arange(len(losses))
        assert got.n_switches <= k
        best = losses[rounds, reference_best_path(losses, k)].sum()
        assert losses[rounds, got.experts].sum() == pytest.approx(best, abs=1e-12 * losses.sum())

    @pytest.mark.parametrize("m", [2, 3, 5, WIDE_ODD, WIDE_EVEN])
    def test_random_tie_heavy(self, m):
        rng = np.random.default_rng(m)
        for _ in range(15):
            horizon = int(rng.integers(1, 30))
            k = int(rng.integers(0, 6))
            losses = rng.integers(0, 2, size=(horizon, m)).astype(float)
            self.check(losses, k)

    @pytest.mark.parametrize("m", [256, 300])
    def test_switch_from_an_arm_past_255(self, m):
        # the switch out of the last arm names a source arm past 255
        losses = np.ones((6, m))
        losses[:3, -1] = losses[3:, 0] = 0.0
        self.check(losses, 1)
        seq = best_competitor(losses, fixed_kernel(m), 1)
        np.testing.assert_array_equal(seq.experts, [m - 1] * 3 + [0] * 3)

    @pytest.mark.parametrize("m", [4, WIDE_EVEN])
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
