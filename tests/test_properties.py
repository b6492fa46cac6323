"""Property tests over random integer-class kernels.

Classes map to experts through an arbitrary int array, so an expert may
have several classes or none. The draws are derandomized and few, which
keeps every run of the suite identical and quick.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from partialmix import (
    CompetitorSequence,
    ConstantFeedback,
    FeedbackMatrix,
    LearnerConfig,
    ScriptedLosses,
    TableKernel,
    advance,
    bandit_feedback,
    check_lemmas,
    complexity,
    enumerate_weights,
    expert_marginals,
    full_feedback_process,
    init_weights,
    run_game,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
WEIGHT = st.floats(0.05, 1.0)


def _stochastic(draw, n: int, keep: int) -> np.ndarray:
    """A probability vector over ``n`` entries; entry ``keep`` stays
    positive, any other may be 0."""
    weights = np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n)))
    zeros = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    zeros[keep] = False
    weights[zeros] = 0.0
    return weights / weights.sum()


@st.composite
def kernels(draw) -> TableKernel:
    """Up to 4 classes over M <= 3 experts, repeats and gaps allowed. The
    prior keeps class 0 and each row its diagonal, so the path that stays
    on class 0 is in the support."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    experts = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    prior = _stochastic(draw, n, 0)
    matrix = np.vstack([_stochastic(draw, n, i) for i in range(n)])
    return TableKernel(experts, prior, matrix, m)


@st.composite
def class_paths(draw, kernel: TableKernel, horizon: int) -> list[int]:
    """A class path inside the kernel's support: from class 0, each round
    moves to a drawn class if the transition has weight, else stays."""
    path = [0]
    for _ in range(horizon - 1):
        nxt = draw(st.integers(0, len(kernel.experts) - 1))
        path.append(nxt if kernel.matrix[path[-1], nxt] > 0.0 else path[-1])
    return path


@PROPERTY_SETTINGS
@given(data=st.data(), kernel=kernels(), horizon=st.integers(1, 5), eta=st.floats(0.2, 2.0))
def test_recursion_matches_path_enumeration(data, kernel, horizon, eta):
    m = kernel.n_experts
    phi = np.array(
        data.draw(st.lists(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m),
                           min_size=horizon, max_size=horizon))
    ).reshape(horizon, m)
    weights = init_weights(kernel)
    for t in range(horizon):
        weights = advance(weights, phi[t], eta, eta, kernel)
    np.testing.assert_allclose(
        expert_marginals(weights, kernel), enumerate_weights(kernel, phi, eta), rtol=0, atol=1e-10
    )


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    kernel=kernels(),
    horizon=st.integers(1, 5),
    feedback=st.sampled_from(["bandit", "strict", "full"]),
    slack=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_prefix_inequalities_hold(data, kernel, horizon, feedback, slack, seed):
    m = kernel.n_experts
    competitor = CompetitorSequence(data.draw(class_paths(kernel, horizon)), kernel)
    config = LearnerConfig(
        n_experts=m, kernel=kernel, w_budget=complexity(kernel, competitor) + slack
    )
    if feedback == "bandit":
        process = bandit_feedback(m)
    elif feedback == "full":
        process = full_feedback_process(m)
    else:
        # rows summing to 1 observe each loss with total probability 1
        rows = np.vstack([_stochastic(data.draw, m, i) for i in range(m)])
        process = ConstantFeedback(FeedbackMatrix(rows, "strict"))
    losses = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=horizon * m, max_size=horizon * m))
    ).reshape(horizon, m)
    transcript = run_game(config, ScriptedLosses(losses, (0.0, 1.0)), process, horizon, seed)
    diagnostics = check_lemmas(transcript, competitor)
    assert diagnostics.all_passed, diagnostics.checks
