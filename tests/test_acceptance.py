"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavier criteria
state their runtime budgets and are asserted against them.
"""

import json
import math
import time

import numpy as np

from partialmix.classnet import fixed_share_kernel
from partialmix.cli import main
from partialmix.environment import CompetitorSpec, PiecewiseLosses, bandit_feedback, run_game
from partialmix.evaluation import ExperimentBundle, fit_scaling, monte_carlo
from partialmix.feedback import FeedbackMatrix, observation_probabilities
from partialmix.learner import LearnerConfig, estimate
from partialmix.oracle import exact_expected_regret
from partialmix.validation import affine_pair, lemma_suite, oracle_equivalence_suite
from partialmix.classnet import fixed_kernel
from partialmix.environment import ScriptedLosses


def report(index: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {index} {name}: {status} ({detail})")


def switching_bundle(horizon: int, n_seeds_hint: int = 0) -> ExperimentBundle:
    """Piecewise losses with two designed switches, fixed-share kernel with
    the matched switching rate, budget set to the realized complexity."""
    m = 4
    alpha = 2.0 / (horizon - 1)
    kernel = fixed_share_kernel(m, alpha)
    w_budget = (
        2 * math.log(m)
        + 2 * math.log((m - 1) / alpha)
        + (horizon - 3) * math.log(1.0 / (1.0 - alpha))
    )
    config = LearnerConfig(kernel=kernel, w_budget=w_budget)
    losses = PiecewiseLosses(m, (0.0, 1.0), [0, 1, 2], [1 / 3, 2 / 3])
    return ExperimentBundle(
        learner_config=config,
        loss_process=losses,
        feedback_process=bandit_feedback(m),
        horizon=horizon,
        competitor=CompetitorSpec("best_k_switch", switches=2),
    )


class TestAcceptance:
    def test_1_deterministic_inequalities(self):
        started = time.perf_counter()
        result = lemma_suite(n_configs=100, horizon=2000, seed=31337)
        elapsed = time.perf_counter() - started
        ok = result.passed and elapsed < 120.0
        report(1, "deterministic inequality suite", ok, f"{result.detail}, {elapsed:.1f}s")
        assert result.passed, result.detail
        assert elapsed < 120.0

    def test_2_oracle_weight_equivalence(self):
        result = oracle_equivalence_suite(n_instances=50, seed=20240)
        report(2, "oracle weight equivalence", result.passed, result.detail)
        assert result.passed, result.detail

    def test_3_affine_invariance(self):
        details = []
        ok = True
        for scale, shift in ((0.5, -5.0), (3.0, 10.0)):
            cmp = affine_pair(scale, shift, horizon=1000, seed=7, n_experts=4)
            ok = ok and cmp.selections_equal and cmp.indicators_equal
            ok = ok and cmp.q_sup_diff <= 1e-6
            ok = ok and cmp.regret_scale_error <= 1e-9
            ok = ok and cmp.normalized_regret_diff <= 1e-6
            details.append(
                f"a={scale}: q diff {cmp.q_sup_diff:.2e}, scale err "
                f"{cmp.regret_scale_error:.2e}, norm diff {cmp.normalized_regret_diff:.2e}"
            )
        report(3, "affine invariance", ok, "; ".join(details))
        assert ok

    def test_4_estimator_unbiasedness(self):
        rng = np.random.default_rng(90210)
        m, horizon, resamples = 3, 60, 10**5
        matrix = FeedbackMatrix(np.vstack([rng.dirichlet(np.ones(m)) for _ in range(m)]))
        config = LearnerConfig(kernel=fixed_kernel(m), w_budget=2 * math.log(m))
        values = rng.uniform(size=(horizon, m))
        from partialmix.environment import ConstantFeedback

        transcript = run_game(
            config, ScriptedLosses(values, (0.0, 1.0)), ConstantFeedback(matrix),
            horizon, seed=424,
        )
        rounds = np.linspace(1, horizon, 10, dtype=int)
        checked = []
        for t in rounds:
            psi_prev = transcript.psi[t - 2] if t > 1 else math.inf
            row = transcript.losses[t - 1]
            q = transcript.q[t - 1]
            o = observation_probabilities(matrix, q)  # the bytes the learner used
            sel = np.searchsorted(np.cumsum(q), rng.random(resamples), side="right")
            sel = np.minimum(sel, m - 1)
            indicators = rng.random((resamples, m)) < matrix.entries[:, sel].T
            masked = np.where(indicators, row, math.inf)
            psi = np.minimum(psi_prev, masked.min(axis=1))
            phi = np.where(indicators, (row - psi[:, None]) / o, 0.0)

            # the vectorized resampler must agree with the estimator itself
            for k in rng.integers(resamples, size=25):
                np.testing.assert_allclose(
                    estimate(np.flatnonzero(indicators[k]), row[indicators[k]], o, psi[k]),
                    phi[k],
                    atol=1e-12,
                )

            mean_phi = phi.mean(axis=0)
            for arm in range(m):
                observed = indicators[:, arm]
                n_arm = int(observed.sum())
                assert n_arm > 0
                psi_bar = psi[observed].mean()
                target = row[arm] - psi_bar
                delta = mean_phi[arm] - target
                se = (
                    abs(row[arm] - psi_bar) / o[arm]
                    * math.sqrt(o[arm] * (1 - o[arm]) / resamples)
                )
                checked.append((t, arm, delta, se))
        ok = all(abs(delta) <= 4 * se + 1e-12 for _, _, delta, se in checked)
        # sigma is meaningful only where 4 se exceeds the absolute slack;
        # elsewhere se is about 0 and only the slack holds
        sigmas = [abs(delta) / se for _, _, delta, se in checked if 4 * se > 1e-12]
        report(
            4, "estimator unbiasedness", ok,
            f"10 frozen rounds x {resamples} resamples, worst |delta|/se "
            f"{max(sigmas, default=0.0):.2f} over {len(sigmas)} of {len(checked)} rows",
        )
        for t, arm, delta, se in checked:
            assert abs(delta) <= 4 * se + 1e-12, (t, arm, delta, se)

    def test_5_exact_expectation_cross_check(self):
        started = time.perf_counter()
        kernel = fixed_kernel(2)
        config = LearnerConfig(kernel=kernel, gamma=1.0, epsilon=0.5)
        values = np.array([[0.1, 0.7], [0.6, 0.2]])
        process = ScriptedLosses(values, (0.0, 1.0))
        competitor = [0, 0]
        exact = exact_expected_regret(config, values, bandit_feedback(2), competitor)
        bundle = ExperimentBundle(
            learner_config=config,
            loss_process=process,
            feedback_process=bandit_feedback(2),
            horizon=2,
            competitor=CompetitorSpec("explicit", sequence=(0, 0)),
        )
        summary, _ = monte_carlo(bundle, 10**5, base_seed=1000)
        elapsed = time.perf_counter() - started
        gap = abs(summary.mean_regret - exact)
        ok = gap <= 4 * summary.std_error and elapsed < 60.0
        report(
            5, "exact expectation cross-check", ok,
            f"exact {exact:.6f}, monte-carlo {summary.mean_regret:.6f} "
            f"+/- {summary.std_error:.6f}, {elapsed:.1f}s",
        )
        assert gap <= 4 * summary.std_error
        assert elapsed < 60.0

    def test_6_bound_satisfaction(self):
        started = time.perf_counter()
        horizon, seeds = 10**4, 50
        bundle = switching_bundle(horizon)
        summary, results = monte_carlo(bundle, seeds, base_seed=600)
        elapsed = time.perf_counter() - started
        budget = bundle.learner_config.w_budget
        realized = max(r.complexity for r in results)
        upper = summary.normalized_confidence_interval[1]
        ok = (
            upper <= summary.bound.theorem
            and abs(realized - budget) <= 1e-6
            and elapsed < 300.0
        )
        report(
            6, "bound satisfaction", ok,
            f"CI upper {upper:.1f} <= bound {summary.bound.theorem:.1f}, "
            f"realized W {realized:.4f} vs budget {budget:.4f}, {elapsed:.0f}s",
        )
        assert abs(realized - budget) <= 1e-6
        assert all(r.n_switches <= 2 for r in results)
        assert upper <= summary.bound.theorem
        assert elapsed < 300.0

    def test_7_scaling_rate(self):
        started = time.perf_counter()
        horizons = [2**k for k in range(10, 17)]
        means = []
        for horizon in horizons:
            summary, _ = monte_carlo(switching_bundle(horizon), 30, base_seed=700)
            means.append(summary.mean_regret)
        slope = fit_scaling(np.array(horizons, dtype=float), np.array(means))
        elapsed = time.perf_counter() - started
        ok = slope <= 0.80 and elapsed < 1200.0
        report(
            7, "scaling rate", ok,
            f"slope {slope:.3f} over T in {{2^10..2^16}}, "
            f"means {['%.1f' % v for v in means]}, {elapsed:.0f}s",
        )
        assert all(v > 0 for v in means)
        assert slope <= 0.80
        assert elapsed < 1200.0

    def test_8_byte_identical_runs(self, tmp_path):
        config = {
            "experts": 3,
            "horizon": 500,
            "kernel": {"type": "fixed_share", "alpha": 0.01},
            "w_budget": 13.0,
            "loss": {
                "kind": "piecewise", "range": [0.0, 1.0],
                "best_arms": [1, 3], "boundaries": [0.5],
            },
            "feedback": {"kind": "bandit"},
            "competitor": {"kind": "best_k_switch", "switches": 1},
            "seed": 2024,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            outs.append((out / "rounds.csv").read_bytes())
        ok = outs[0] == outs[1]
        report(8, "byte-identical transcripts", ok, f"{len(outs[0])} bytes compared")
        assert ok
