"""Expert-mixture online learning under partial monitoring.

A learner mixes class-network marginals with a uniform exploration floor,
observes losses through an arbitrary (possibly adversarial) observation-
probability scheme, and competes against generalized comparator classes
(fixed, switching, or any Markov prior over expert sequences) with
second-order, translation-invariant regret guarantees. Includes a
simulation harness, per-run inequality diagnostics, closed-form bound
evaluation, and brute-force oracles for desk-scale verification.
"""

from .classnet import (
    CompetitorSequence,
    TableKernel,
    advance,
    complexity,
    expert_marginals,
    fixed_kernel,
    fixed_share_kernel,
    init_weights,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .environment import (
    BernoulliArm,
    CompetitorSpec,
    ConstantFeedback,
    GameTranscript,
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
from .evaluation import (
    BatchSummary,
    BoundValue,
    ExperimentBundle,
    LemmaDiagnostics,
    RegretReport,
    check_lemmas,
    fit_scaling,
    monte_carlo,
    realized_regret,
    regret_bound,
    theoretical_bound,
)
from .feedback import (
    FeedbackMatrix,
    full_feedback,
    identity_feedback,
    observation_probabilities,
)
from .feedback import validate as validate_feedback
from .learner import (
    LearnerConfig,
    LearnerState,
    epsilon_schedule,
    estimate,
    init_state,
    select,
    step,
    update_rate,
)
from .oracle import enumerate_weights, exact_expected_regret

__version__ = "0.1.0"
