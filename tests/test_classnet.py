import math

import numpy as np
import pytest

from partialmix.classnet import (
    ClassNetError,
    CompetitorSequence,
    EmptyClassSetError,
    NegativePhiError,
    RateIncreaseError,
    TableKernel,
    ZeroTransitionError,
    advance,
    complexity,
    expert_marginals,
    fixed_kernel,
    fixed_share_kernel,
    init_weights,
    logsumexp,
)
from partialmix.config import parse_kernel
from partialmix.validation import random_table_kernel


def two_class_kernel(prior=(0.9, 0.1), alpha=0.25):
    matrix = np.array([[1 - alpha, alpha], [alpha, 1 - alpha]])
    return TableKernel(np.arange(2), np.array(prior), matrix, 2)


class TestKernels:
    def test_fixed_kernel_shape(self):
        kernel = fixed_kernel(4)
        np.testing.assert_array_equal(kernel.experts, np.arange(4))
        np.testing.assert_allclose(kernel.prior, 0.25)
        np.testing.assert_array_equal(kernel.matrix[2], [0.0, 0.0, 1.0, 0.0])
        assert kernel.class_count(1) == 1
        assert kernel.class_count(3) == 4

    def test_fixed_share_rows_sum_to_one_exactly(self):
        for m, alpha in [(2, 0.25), (3, 0.1), (4, 0.25), (8, 0.125), (5, 0.2), (2, 0.5)]:
            sums = fixed_share_kernel(m, alpha).matrix.sum(axis=1)
            assert np.all(sums == 1.0)

    def test_fixed_share_rows_within_one_ulp_for_any_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            rows = fixed_share_kernel(m, float(rng.uniform(1e-4, 0.999))).matrix
            assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= np.finfo(float).eps)

    def test_fixed_share_single_expert(self):
        kernel = fixed_share_kernel(1, 0.0)
        np.testing.assert_array_equal(kernel.experts, [0])
        np.testing.assert_array_equal(kernel.matrix, [[1.0]])
        with pytest.raises(ClassNetError):
            fixed_share_kernel(1, 0.1)

    def test_invalid_tables_rejected(self):
        classes = np.arange(2)
        with pytest.raises(ClassNetError, match="prior sums"):
            TableKernel(classes, np.array([0.6, 0.6]), np.eye(2), 2)
        with pytest.raises(ClassNetError, match="row 1 sums"):
            TableKernel(classes, np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.3, 0.3]]), 2)
        with pytest.raises(ClassNetError, match="nonnegative"):
            TableKernel(classes, np.array([0.5, 0.5]), np.array([[1.5, -0.5], [0.0, 1.0]]), 2)
        with pytest.raises(EmptyClassSetError):
            TableKernel(np.array([], dtype=int), np.array([]), np.zeros((0, 0)), 1)
        with pytest.raises(ClassNetError, match="out of range"):
            TableKernel(np.array([0, 2]), np.array([0.5, 0.5]), np.eye(2), 2)
        with pytest.raises(ClassNetError, match="integer array"):
            TableKernel(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.eye(2), 2)

    @pytest.mark.parametrize(
        "prior, matrix",
        [
            ([math.nan, 1.0], np.eye(2)),
            ([0.5, 0.5], [[math.nan, 1.0], [0.0, 1.0]]),
            ([0.5, 0.5], [[math.inf, 0.0], [0.0, 1.0]]),
            ([math.inf, 0.5], np.eye(2)),
        ],
    )
    def test_non_finite_weights_rejected(self, prior, matrix):
        with pytest.raises(ClassNetError, match="must be finite"):
            TableKernel(np.arange(2), np.array(prior), np.array(matrix), 2)


class TestInitWeights:
    def test_uniform_prior(self):
        weights = init_weights(fixed_kernel(4))
        np.testing.assert_allclose(weights, math.log(0.25))
        assert weights.shape == (4,)

    def test_nonuniform_prior(self):
        weights = init_weights(two_class_kernel(prior=(0.9, 0.1)))
        np.testing.assert_allclose(weights, [math.log(0.9), math.log(0.1)])

    def test_zero_prior_class_is_minus_inf(self):
        kernel = TableKernel(
            np.arange(2), np.array([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]]), 2
        )
        weights = init_weights(kernel)
        assert weights[0] == 0.0 and weights[1] == -math.inf
        np.testing.assert_array_equal(expert_marginals(weights, kernel), [1.0, 0.0])


class TestAdvance:
    def test_zero_phi_identity_kernel_is_noop(self):
        kernel = two_class_kernel(prior=(0.7, 0.3), alpha=0.0)
        weights = init_weights(kernel)
        advanced = advance(weights, np.zeros(2), 1.0, 1.0, kernel)
        # unchanged up to the renormalization constant
        shifted = advanced - advanced[0] + weights[0]
        np.testing.assert_allclose(shifted, weights, atol=1e-12)

    def test_single_step_hand_value(self):
        # uniform prior, identity mixing, eta 1, phi = (ln 2, 0):
        # unnormalized weights 1/4 and 1/2, marginals (1/3, 2/3)
        kernel = fixed_kernel(2)
        weights = advance(init_weights(kernel), np.array([math.log(2), 0.0]), 1.0, 1.0, kernel)
        np.testing.assert_allclose(expert_marginals(weights, kernel), [1 / 3, 2 / 3], rtol=1e-12)

    def test_fixed_share_mixes_linearly(self):
        # exponentials z_i then w'_0 = 0.75 z_0 + 0.25 z_1
        rng = np.random.default_rng(6)
        kernel = fixed_share_kernel(2, 0.25)
        for _ in range(10):
            log_w = rng.normal(size=2)
            phi = rng.uniform(0, 3, size=2)
            eta = rng.uniform(0.1, 2.0)
            weights = advance(log_w, phi, eta, eta, kernel)
            z = np.exp(log_w - eta * phi)
            expected = np.array([0.75 * z[0] + 0.25 * z[1], 0.25 * z[0] + 0.75 * z[1]])
            got = np.exp(weights)
            np.testing.assert_allclose(got / got.sum(), expected / expected.sum(), rtol=1e-12)

    def test_rate_increase_rejected(self):
        kernel = fixed_kernel(2)
        with pytest.raises(RateIncreaseError):
            advance(init_weights(kernel), np.zeros(2), 0.5, 0.6, kernel)

    def test_negative_phi_rejected(self):
        kernel = fixed_kernel(2)
        with pytest.raises(NegativePhiError, match=r"^loss estimates must be nonnegative, got min -0\.1$"):
            advance(init_weights(kernel), np.array([-0.1, 0.0]), 1.0, 1.0, kernel)

    def test_marginals_invariant_to_log_weight_shift(self):
        rng = np.random.default_rng(7)
        kernel = fixed_share_kernel(3, 0.1)
        log_w = rng.normal(size=3)
        phi = rng.uniform(0, 2, size=3)
        base = expert_marginals(advance(log_w, phi, 1.0, 0.7, kernel), kernel)
        for shift in (-40.0, 3.5, 123.0):
            moved = expert_marginals(advance(log_w + shift, phi, 1.0, 0.7, kernel), kernel)
            np.testing.assert_allclose(moved, base, atol=1e-12)

    def test_result_is_max_normalized(self):
        kernel = fixed_share_kernel(3, 0.2)
        rng = np.random.default_rng(8)
        weights = advance(
            init_weights(kernel), rng.uniform(0, 5, size=3), 0.9, 0.9, kernel
        )
        assert weights.max() == 0.0

    def test_pruned_class_stays_out(self):
        # a zero column forever starves the second class
        kernel = TableKernel(
            np.arange(2),
            np.array([0.5, 0.5]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
            2,
        )
        weights = advance(init_weights(kernel), np.zeros(2), 1.0, 1.0, kernel)
        assert weights[1] == -math.inf
        assert expert_marginals(weights, kernel)[1] == 0.0
        weights = advance(weights, np.array([0.0, 1.0]), 1.0, 1.0, kernel)
        assert weights[1] == -math.inf

    def test_all_mass_lost_rejected(self):
        kernel = fixed_kernel(2)
        with pytest.raises(EmptyClassSetError):
            advance(np.full(2, -math.inf), np.zeros(2), 1.0, 1.0, kernel)

    def test_shapes_checked_for_every_class_map(self):
        for kernel in (fixed_kernel(3), TableKernel(np.array([2, 0, 1]), *uniform_table(3), 3)):
            for phi in (np.zeros(1), np.zeros(4), np.zeros((3, 1))):
                with pytest.raises(ClassNetError, match="shape"):
                    advance(init_weights(kernel), phi, 1.0, 1.0, kernel)
            for log_w in (np.zeros(1), np.zeros(4)):
                with pytest.raises(ClassNetError, match="shape"):
                    expert_marginals(log_w, kernel)

    @pytest.mark.parametrize(
        "phi", [[math.nan, -0.1, 0.0], [-0.1, math.nan, 0.0], [math.nan] * 3]
    )
    def test_nan_phi_rejected(self, phi):
        for kernel in (fixed_kernel(3), TableKernel(np.array([2, 0, 1]), *uniform_table(3), 3)):
            with pytest.raises(NegativePhiError, match=r"^loss estimate [01] is NaN$"):
                advance(init_weights(kernel), np.array(phi), 1.0, 1.0, kernel)


def uniform_table(n):
    return np.full(n, 1.0 / n), np.full((n, n), 1.0 / n)


def gathered_advance(log_w, phi, eta_prev, eta_new, kernel):
    """advance with the explicit per-class gather of the estimates."""
    new_log = kernel.mix((eta_new / eta_prev) * (log_w - eta_prev * phi[kernel.experts]))
    return new_log - new_log.max()


def grouped_marginals(log_w, kernel):
    """expert_marginals with the explicit per-expert bincount."""
    mass = np.exp(log_w - log_w.max())
    per_expert = np.bincount(kernel.experts, weights=mass, minlength=kernel.n_experts)
    return per_expert / per_expert.sum()


class TestIdentityClassMap:
    """Kernels whose class i is expert i skip the gather and the grouping;
    every kernel must give exactly the gathered and grouped results."""

    def test_flag_set_only_for_arange(self):
        assert fixed_kernel(1)._identity
        assert fixed_kernel(4)._identity and fixed_share_kernel(4, 0.1)._identity
        assert TableKernel(np.arange(3), *uniform_table(3), 3)._identity
        for experts, n_experts in (
            ([1, 0, 2, 3], 4), ([0, 0, 1, 2], 3), ([0, 1, 2], 4), ([0, 1, 3, 2], 4)
        ):
            kernel = TableKernel(np.array(experts), *uniform_table(len(experts)), n_experts)
            assert not kernel._identity, experts

    @pytest.mark.parametrize(
        "experts, n_experts",
        [
            ([0, 1, 2, 3], 4),  # identity
            ([1, 0, 2, 3], 4),  # permuted
            ([0, 0, 1, 2, 3, 3], 4),  # repeated experts
            ([0, 1, 3], 4),  # expert 2 has no class
        ],
    )
    def test_matches_gather_and_bincount(self, experts, n_experts):
        rng = np.random.default_rng(len(experts) * 10 + experts[0])
        n = len(experts)
        matrix = np.vstack([rng.dirichlet(np.ones(n)) for _ in range(n)])
        kernels = [TableKernel(np.array(experts), rng.dirichlet(np.ones(n)), matrix, n_experts)]
        if experts == list(range(n_experts)):
            kernels += [fixed_kernel(n), fixed_share_kernel(n, 0.3)]
        for kernel in kernels:
            log_w = init_weights(kernel)
            for _ in range(20):
                phi = rng.uniform(0.0, 3.0, size=n_experts)
                got = advance(log_w, phi, 0.9, 0.8, kernel)
                np.testing.assert_array_equal(got, gathered_advance(log_w, phi, 0.9, 0.8, kernel))
                np.testing.assert_array_equal(
                    expert_marginals(got, kernel), grouped_marginals(got, kernel)
                )
                log_w = got


def dense_mix(kernel, scaled):
    """The reference O(n^2) mix over the full log table."""
    return logsumexp(kernel.log_matrix + scaled[:, None], axis=0)


def dense_advance(log_w, phi, eta_prev, eta_new, kernel):
    new_log = dense_mix(kernel, (eta_new / eta_prev) * (log_w - eta_prev * phi[kernel.experts]))
    return new_log - new_log.max()


def normalized(log_w):
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


class TestMix:
    @pytest.mark.parametrize("m", [2, 3, 4, 32, 256])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.3])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_closed_form_matches_dense(self, m, alpha, scale):
        kernel = fixed_share_kernel(m, alpha)
        assert kernel._log_stay is not None
        rng = np.random.default_rng([m, int(alpha * 1e3), int(scale)])
        for _ in range(20):
            scaled = scale * rng.normal(size=m)
            dropped = rng.random(m) < 0.2
            dropped[rng.integers(m)] = False  # keep some mass
            scaled[dropped] = -math.inf
            fast = kernel.mix(scaled)
            dense = dense_mix(kernel, scaled)
            np.testing.assert_array_equal(np.isfinite(fast), np.isfinite(dense))
            np.testing.assert_allclose(normalized(fast), normalized(dense), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 32, 256])
    def test_fixed_kernel_bit_identical(self, m):
        kernel = fixed_kernel(m)
        rng = np.random.default_rng(m)
        for scale in (1.0, 30.0, 800.0):
            scaled = scale * rng.normal(size=m)
            scaled[rng.random(m) < 0.2] = -math.inf
            assert np.array_equal(kernel.mix(scaled), dense_mix(kernel, scaled))

    def test_config_table_of_the_same_form(self):
        reference = fixed_share_kernel(5, 0.1)
        spec = {
            "type": "custom",
            "classes": [{"expert": m + 1} for m in range(5)],
            "prior": reference.prior.tolist(),
            "transitions": reference.matrix.tolist(),
        }
        table = parse_kernel(spec, 5)
        assert table._log_stay is not None
        rng = np.random.default_rng(9)
        log_w = init_weights(table)
        for _ in range(30):
            phi = rng.uniform(0, 4, size=5)
            got = advance(log_w, phi, 0.8, 0.7, table)
            assert np.array_equal(got, advance(log_w, phi, 0.8, 0.7, reference))
            log_w = got

    @pytest.mark.parametrize(
        "kernel",
        [
            fixed_share_kernel(2, 0.9),  # stay = 0.1 - 0.9 < 0
            fixed_kernel(1),  # no off-diagonal entry
            TableKernel(np.arange(2), np.array([0.5, 0.5]),
                        np.array([[0.7, 0.3], [0.2, 0.8]]), 2),  # two off values
        ],
        ids=["negative_stay", "single_class", "unequal_off"],
    )
    def test_dense_fallback_is_exact(self, kernel):
        assert kernel._log_stay is None
        n = len(kernel.experts)
        rng = np.random.default_rng(n)
        log_w = init_weights(kernel)
        for _ in range(20):
            phi = rng.uniform(0, 3, size=kernel.n_experts)
            got = advance(log_w, phi, 1.0, 0.9, kernel)
            assert np.array_equal(got, dense_advance(log_w, phi, 1.0, 0.9, kernel))
            log_w = got

    def test_random_table_kernels_are_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            kernel = random_table_kernel(rng, int(rng.integers(2, 6)))
            log_w = init_weights(kernel)
            for _ in range(5):
                phi = rng.uniform(0, 3, size=kernel.n_experts)
                got = advance(log_w, phi, 1.2, 1.1, kernel)
                assert np.array_equal(got, dense_advance(log_w, phi, 1.2, 1.1, kernel))
                log_w = got

    def test_all_mass_lost_rejected_on_closed_form(self):
        kernel = fixed_share_kernel(4, 0.1)
        assert kernel._log_stay is not None
        with pytest.raises(EmptyClassSetError):
            advance(np.full(4, -math.inf), np.zeros(4), 1.0, 1.0, kernel)


class TestAdaptiveRatePowerCorrection:
    def test_matches_linear_domain_recursion(self):
        # reference: w'(c') = sum_c T(c'|c) * (w(c) * exp(-eta_prev * phi_c))
        # ** (eta_new / eta_prev), computed directly in the linear domain
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            kernel = fixed_share_kernel(m, float(rng.uniform(0.05, 0.4)))
            matrix = kernel.matrix
            horizon = 5
            etas = np.sort(rng.uniform(0.1, 1.5, horizon))[::-1]
            phis = rng.uniform(0.0, 2.0, size=(horizon, m))

            linear = np.full(m, 1.0 / m)
            weights = init_weights(kernel)
            for t in range(horizon):
                eta_prev = etas[max(t - 1, 0)]
                z = linear * np.exp(-eta_prev * phis[t])
                linear = matrix.T @ (z ** (etas[t] / eta_prev))
                weights = advance(weights, phis[t], eta_prev, etas[t], kernel)
            expected = linear / linear.sum()
            np.testing.assert_allclose(expert_marginals(weights, kernel), expected, rtol=1e-11)


class TestExpertMarginals:
    def test_uniform_across_experts(self):
        kernel = fixed_kernel(5)
        np.testing.assert_allclose(
            expert_marginals(init_weights(kernel), kernel), 0.2, rtol=1e-12
        )

    def test_classes_sum_per_expert(self):
        kernel = TableKernel(
            np.array([0, 0, 1]),
            np.array([0.2, 0.3, 0.5]),
            np.full((3, 3), 1.0 / 3),
            2,
        )
        np.testing.assert_allclose(
            expert_marginals(init_weights(kernel), kernel), [0.5, 0.5], rtol=1e-12
        )

    def test_expert_without_classes_gets_zero(self):
        kernel = TableKernel(np.array([0, 2]), np.array([0.4, 0.6]), np.eye(2), 3)
        marginals = expert_marginals(init_weights(kernel), kernel)
        np.testing.assert_allclose(marginals, [0.4, 0.0, 0.6], rtol=1e-12)
        assert abs(marginals.sum() - 1.0) <= 1e-12


class TestComplexity:
    def test_fixed_kernel_constant_sequence(self):
        kernel = fixed_kernel(4)
        seq = CompetitorSequence.from_experts([1, 1, 1], kernel)
        assert complexity(kernel, seq) == pytest.approx(2 * math.log(4), abs=1e-12)

    def test_fixed_share_hand_value(self):
        # uniform prior, stay 0.75, switch 0.25: log 2 - log(0.5 * 0.75 * 0.25)
        kernel = fixed_share_kernel(2, 0.25)
        seq = CompetitorSequence.from_experts([0, 0, 1], kernel)
        assert complexity(kernel, seq) == pytest.approx(3.060270794691562, abs=1e-12)

    def test_single_class_kernel(self):
        kernel = TableKernel(np.array([0]), np.array([1.0]), np.array([[1.0]]), 1)
        seq = CompetitorSequence.from_experts([0, 0, 0, 0], kernel)
        assert complexity(kernel, seq) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_support_raises(self):
        kernel = fixed_kernel(3)
        seq = CompetitorSequence.from_experts([0, 1], kernel)
        with pytest.raises(ZeroTransitionError, match="into class 1 at round 2"):
            complexity(kernel, seq)

    def test_zero_prior_first_class_raises(self):
        kernel = TableKernel(np.arange(2), np.array([1.0, 0.0]), np.full((2, 2), 0.5), 2)
        with pytest.raises(ZeroTransitionError, match="into class 1 at round 1"):
            complexity(kernel, CompetitorSequence([1, 0], kernel))

    def test_class_path_is_read_only_int_arrays(self):
        kernel = TableKernel(np.array([1, 0, 1]), np.full(3, 1 / 3), np.full((3, 3), 1 / 3), 2)
        seq = CompetitorSequence([2, 0, 1], kernel)
        np.testing.assert_array_equal(seq.experts, [1, 1, 0])
        assert len(seq) == 3 and seq.n_switches == 1
        for column in (seq.classes, seq.experts):
            assert column.dtype.kind == "i" and not column.flags.writeable
        for bad in ([0, 3], [-1, 0]):
            with pytest.raises(ClassNetError, match="class index out of range"):
                CompetitorSequence(bad, kernel)

    def test_fixed_share_switch_count_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            alpha = float(rng.uniform(0.01, 0.5))
            horizon = int(rng.integers(5, 40))
            k = int(rng.integers(0, min(4, horizon - 1)))
            kernel = fixed_share_kernel(m, alpha)
            experts = _random_switching_sequence(rng, m, horizon, k)
            seq = CompetitorSequence.from_experts(experts, kernel)
            expected = (
                math.log(m)
                + math.log(m)
                + k * math.log((m - 1) / alpha)
                + (horizon - 1 - k) * math.log(1 / (1 - alpha))
            )
            assert complexity(kernel, seq) == pytest.approx(expected, abs=1e-9)

    def test_ambiguous_expert_mapping_rejected(self):
        kernel = TableKernel(np.array([0, 0, 2]), np.full(3, 1 / 3), np.full((3, 3), 1 / 3), 3)
        with pytest.raises(ClassNetError, match="expert 0 maps to 2 classes"):
            CompetitorSequence.from_experts([2, 0], kernel)
        with pytest.raises(ClassNetError, match="expert 1 maps to 0 classes"):
            CompetitorSequence.from_experts([2, 1], kernel)
        np.testing.assert_array_equal(CompetitorSequence.from_experts([2], kernel).classes, [2])
        for bad in ([3], [-1]):
            with pytest.raises(ClassNetError, match="expert index out of range"):
                CompetitorSequence.from_experts(bad, kernel)


class TestPathSumEquivalence:
    def test_two_round_hand_enumeration(self):
        # independent arithmetic: explicit loops over the four length-2 paths
        kernel = two_class_kernel(prior=(0.6, 0.4), alpha=0.2)
        phi = np.array([[0.3, 1.1], [0.8, 0.2]])
        eta = 0.9
        prior = {0: 0.6, 1: 0.4}
        trans = {(0, 0): 0.8, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.8}
        marginal = {0: 0.0, 1: 0.0}
        for c1 in (0, 1):
            for c2 in (0, 1):
                for c3 in (0, 1):
                    weight = prior[c1] * trans[(c1, c2)] * trans[(c2, c3)]
                    weight *= math.exp(-eta * (phi[0][c1] + phi[1][c2]))
                    marginal[c3] += weight
        total = marginal[0] + marginal[1]
        expected = np.array([marginal[0] / total, marginal[1] / total])

        weights = init_weights(kernel)
        for t in range(2):
            weights = advance(weights, phi[t], eta, eta, kernel)
        np.testing.assert_allclose(expert_marginals(weights, kernel), expected, rtol=1e-12)


class TestLogsumexp:
    def test_matches_naive_on_moderate_values(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 5))
        np.testing.assert_allclose(
            logsumexp(a, axis=0), np.log(np.exp(a).sum(axis=0)), rtol=1e-12
        )

    def test_handles_minus_inf(self):
        a = np.array([-np.inf, 0.0, math.log(3)])
        assert logsumexp(a) == pytest.approx(math.log(4))
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_extreme_scale(self):
        a = np.array([-1e6, -1e6 + math.log(2)])
        assert logsumexp(a) == pytest.approx(-1e6 + math.log(3), rel=1e-12)


def _random_switching_sequence(rng, m, horizon, k):
    switch_at = np.sort(rng.choice(np.arange(1, horizon), size=k, replace=False))
    experts = []
    arm = int(rng.integers(m))
    boundaries = [0, *switch_at.tolist(), horizon]
    for lo, hi in zip(boundaries, boundaries[1:]):
        experts.extend([arm] * (hi - lo))
        nxt = int(rng.integers(m - 1))
        arm = nxt if nxt < arm else nxt + 1
    return experts
