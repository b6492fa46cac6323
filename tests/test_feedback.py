import numpy as np
import pytest

from partialmix.feedback import (
    DimensionMismatchError,
    EntryOutOfRangeError,
    FeedbackMatrix,
    RowSumDeficientError,
    full_feedback,
    identity_feedback,
    observation_probabilities,
    sample_indicators,
    validate,
)


def observe(matrix, selected, losses, rng):
    """Sampled indicators with the revealed loss values in index order, as
    the learner builds them."""
    indicators = sample_indicators(matrix, selected, rng)
    return indicators, losses[np.flatnonzero(indicators)]


class TestValidate:
    def test_identity_strict_ok(self):
        validate(identity_feedback(3))

    def test_all_ones_full_ok(self):
        validate(full_feedback(4))

    def test_row_sum_deficient(self):
        matrix = FeedbackMatrix(np.array([[0.6, 0.3], [0.3, 0.7]]), "strict")
        with pytest.raises(RowSumDeficientError, match="row 0"):
            validate(matrix)

    def test_row_sums_above_one_allowed_in_strict(self):
        validate(FeedbackMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "strict"))

    def test_entry_out_of_range(self):
        with pytest.raises(EntryOutOfRangeError):
            validate(FeedbackMatrix(np.array([[1.2, 0.0], [0.0, 1.0]]), "strict"))
        with pytest.raises(EntryOutOfRangeError):
            validate(FeedbackMatrix(np.array([[-0.1, 1.1], [1.0, 1.0]]), "strict"))

    @pytest.mark.parametrize(
        "entries, mode",
        [
            ([[1.0, np.nan], [0.0, 1.0]], "strict"),
            ([[1.0, 0.0], [np.inf, 1.0]], "strict"),
            ([[1.0, 1.0], [1.0, np.nan]], "full"),
        ],
    )
    def test_non_finite_entry_rejected(self, entries, mode):
        with pytest.raises(EntryOutOfRangeError, match="not finite"):
            validate(FeedbackMatrix(np.array(entries), mode))

    def test_full_mode_requires_ones(self):
        with pytest.raises(EntryOutOfRangeError):
            validate(FeedbackMatrix(np.array([[1.0, 0.9], [1.0, 1.0]]), "full"))

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            validate(FeedbackMatrix(np.ones((2, 3)), "strict"))


class TestObservationProbabilities:
    def test_identity_reduces_to_q(self):
        q = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(
            observation_probabilities(identity_feedback(3), q), q
        )

    def test_stochastic_rows_with_uniform_q(self):
        rng = np.random.default_rng(0)
        m = 5
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(m)) for _ in range(m)]))
        o = observation_probabilities(matrix, np.full(m, 1.0 / m))
        np.testing.assert_allclose(o, 1.0 / m, rtol=1e-12)

    def test_hand_value(self):
        matrix = FeedbackMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]))
        np.testing.assert_allclose(
            observation_probabilities(matrix, np.array([0.5, 0.5])), [0.5, 0.5]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            observation_probabilities(identity_feedback(3), np.array([0.5, 0.5]))

    def test_affine_in_q(self):
        rng = np.random.default_rng(1)
        m = 4
        matrix = FeedbackMatrix(rng.random((m, m)))
        for _ in range(20):
            q1 = rng.dirichlet(np.ones(m))
            q2 = rng.dirichlet(np.ones(m))
            a = rng.random()
            mixed = observation_probabilities(matrix, a * q1 + (1 - a) * q2)
            combo = a * observation_probabilities(matrix, q1) + (
                1 - a
            ) * observation_probabilities(matrix, q2)
            np.testing.assert_allclose(mixed, combo, atol=1e-12)


class TestSampling:
    def test_identity_observes_only_selected(self):
        rng = np.random.default_rng(2)
        losses = np.array([0.1, 0.2, 0.3])
        indicators, revealed = observe(identity_feedback(3), 1, losses, rng)
        np.testing.assert_array_equal(indicators, [0, 1, 0])
        np.testing.assert_array_equal(revealed, [0.2])

    def test_full_mode_observes_all(self):
        rng = np.random.default_rng(3)
        indicators, revealed = observe(full_feedback(3), 0, np.array([0.1, 0.2, 0.3]), rng)
        np.testing.assert_array_equal(indicators, [1, 1, 1])
        np.testing.assert_array_equal(revealed, [0.1, 0.2, 0.3])

    def test_deterministic_given_seed(self):
        matrix = FeedbackMatrix(np.full((3, 3), 1.0 / 3))
        losses = np.array([0.5, 0.6, 0.7])
        first = observe(matrix, 2, losses, np.random.default_rng(11))
        second = observe(matrix, 2, losses, np.random.default_rng(11))
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_indicator_frequency_matches_probability(self):
        # every arm observed with probability 0.5 regardless of selection
        matrix = FeedbackMatrix(np.full((2, 2), 0.5))
        rng = np.random.default_rng(4)
        n = 10**5
        counts = np.zeros(2)
        for _ in range(n):
            counts += sample_indicators(matrix, 0, rng)
        four_se = 4 * np.sqrt(0.25 / n)
        np.testing.assert_allclose(counts / n, 0.5, atol=four_se)

    def test_frequency_under_random_selections(self):
        # empirical observation frequency converges to P @ q
        rng = np.random.default_rng(5)
        m = 3
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(m)) for _ in range(m)]))
        q = np.array([0.2, 0.5, 0.3])
        o = observation_probabilities(matrix, q)
        n = 10**5
        selections = rng.choice(m, size=n, p=q)
        draws = rng.random((n, m))
        indicators = draws < matrix.entries.T[selections]
        freq = indicators.mean(axis=0)
        four_se = 4 * np.sqrt(o * (1 - o) / n)
        assert np.all(np.abs(freq - o) <= four_se + 1e-12)


class TestIdentityFastPath:
    """A strict identity is recognized at construction and answered in O(M),
    with the bits, indicators and random stream of the dense mat-vec."""

    @pytest.mark.parametrize("m", [1, 4, 256, 1024])
    def test_o_bit_equal_to_matvec(self, m):
        matrix = identity_feedback(m)
        rng = np.random.default_rng(m)
        for _ in range(5):
            q = rng.dirichlet(np.ones(m))
            o = observation_probabilities(matrix, q)
            assert o is not q
            assert o.tobytes() == (matrix.entries @ q).tobytes()

    @pytest.mark.parametrize("m", [1, 4, 256, 1024])
    def test_indicators_and_stream_match_dense(self, m):
        matrix = identity_feedback(m)
        for selected in sorted({0, m // 2, m - 1}):
            fast_rng = np.random.default_rng(100 + selected)
            dense_rng = np.random.default_rng(100 + selected)
            indicators = sample_indicators(matrix, selected, fast_rng)
            dense = (dense_rng.random(m) < matrix.entries[:, selected]).astype(np.int8)
            assert indicators.dtype == np.int8
            np.testing.assert_array_equal(indicators, dense)
            assert fast_rng.bit_generator.state == dense_rng.bit_generator.state

    def test_entries_are_a_read_only_copy(self):
        source = np.eye(3)
        matrix = FeedbackMatrix(source)
        source[0, 1] = 0.5
        assert matrix._identity and matrix.entries[0, 1] == 0.0
        with pytest.raises(ValueError):
            matrix.entries[0, 1] = 0.5

    def test_identity_from_config_and_script_takes_the_fast_path(self):
        from partialmix.config import parse_feedback_process
        from partialmix.environment import ScriptedFeedback

        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        constant = parse_feedback_process({"kind": "constant", "matrix": eye}, 3)
        scripted = parse_feedback_process({"kind": "scripted", "matrices": [eye, eye]}, 3)
        assert constant.matrix_at(1)._identity
        assert all(scripted.matrix_at(t)._identity for t in (1, 2))
        direct = ScriptedFeedback([FeedbackMatrix(np.eye(3)), identity_feedback(3)])
        assert all(direct.matrix_at(t)._identity for t in (1, 2))
        assert parse_feedback_process({"kind": "bandit"}, 3).matrix_at(1)._identity

    @pytest.mark.parametrize(
        "matrix",
        [
            full_feedback(1),
            full_feedback(4),
            FeedbackMatrix(np.eye(1), "full"),
            FeedbackMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "strict"),
            FeedbackMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "strict"),
            FeedbackMatrix(np.full((3, 3), 1.0 / 3), "strict"),
        ],
    )
    def test_other_matrices_keep_the_matvec(self, matrix):
        assert not matrix._identity
        m = matrix.n_experts
        q = np.random.default_rng(3).dirichlet(np.ones(m))
        assert observation_probabilities(matrix, q).tobytes() == (matrix.entries @ q).tobytes()
        fast_rng, dense_rng = np.random.default_rng(4), np.random.default_rng(4)
        dense = (dense_rng.random(m) < matrix.entries[:, m - 1]).astype(np.int8)
        np.testing.assert_array_equal(sample_indicators(matrix, m - 1, fast_rng), dense)
