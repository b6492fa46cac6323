"""Core sequential learner.

Each round: mix the class-network marginals with a uniform floor, sample a
selection, sample which losses the feedback scheme reveals, translate the
revealed losses by the running minimum observed so far, importance-weight
them by their observation probabilities, refresh the second-order
statistics and the adaptive learning rate, and push the estimates through
the class-weight update.

The learner never reads a loss it did not observe: it receives a loss
*oracle* and queries it only at revealed indices. It also never uses the
loss range; translation by the running minimum makes its behavior
invariant under affine transforms of the losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .classnet import TableKernel, advance, expert_marginals, init_weights
from .feedback import (
    FeedbackMatrix,
    ObservationOutcome,
    observation_probabilities,
    sample_indicators,
)

OBSERVATION_FLOOR_SLACK = 1e-9


class ZeroObservationProbabilityError(ValueError):
    """An observed index has zero observation probability."""


def epsilon_schedule(n_experts: int, w_budget: float, t: int) -> float:
    """Uniform-mixture coefficient ``min(1, M^(1/3) W^(1/3) t^(-1/3))``."""
    if t < 1:
        raise ValueError("round index starts at 1")
    return min(1.0, n_experts ** (1.0 / 3.0) * w_budget ** (1.0 / 3.0) * t ** (-1.0 / 3.0))


@dataclass(frozen=True, eq=False)
class LearnerConfig:
    """Static learner parameters.

    ``gamma`` defaults to ``sqrt(w_budget)``. ``epsilon`` may be a fixed
    value or an explicit non-increasing schedule; by default the
    ``epsilon_schedule`` driven by ``w_budget`` is used. ``fixed_eta``
    disables rate adaptation (debugging / oracle comparisons).
    """

    n_experts: int
    kernel: TableKernel
    w_budget: float | None = None
    gamma: float | None = None
    epsilon: float | Sequence[float] | None = None
    fixed_eta: float | None = None

    def __post_init__(self) -> None:
        if self.n_experts < 1:
            raise ValueError("need at least one expert")
        if self.kernel.n_experts != self.n_experts:
            raise ValueError(
                f"kernel covers {self.kernel.n_experts} experts, config says {self.n_experts}"
            )
        if self.w_budget is not None and self.w_budget <= 0.0:
            raise ValueError("w_budget must be positive")
        if self.gamma is not None and self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.gamma is None and self.w_budget is None:
            raise ValueError("either gamma or w_budget is required")
        if self.epsilon is None and self.w_budget is None:
            raise ValueError("the default epsilon schedule needs w_budget")
        if self.fixed_eta is not None and self.fixed_eta <= 0.0:
            raise ValueError("fixed_eta must be positive")
        if self.epsilon is not None and not isinstance(self.epsilon, (int, float)):
            eps = tuple(float(e) for e in self.epsilon)
            if not eps:
                raise ValueError("epsilon schedule is empty")
            if any(e < 0.0 or e > 1.0 for e in eps):
                raise ValueError("epsilon values must lie in [0, 1]")
            if any(b > a + 1e-12 for a, b in zip(eps, eps[1:])):
                raise ValueError("epsilon schedule must be non-increasing")
            object.__setattr__(self, "epsilon", eps)
        elif isinstance(self.epsilon, (int, float)):
            e = float(self.epsilon)
            if not 0.0 <= e <= 1.0:
                raise ValueError("epsilon must lie in [0, 1]")
            object.__setattr__(self, "epsilon", e)

    @property
    def gamma_value(self) -> float:
        if self.gamma is not None:
            return self.gamma
        return math.sqrt(self.w_budget)

    def epsilon_at(self, t: int) -> float:
        if self.epsilon is None:
            return epsilon_schedule(self.n_experts, self.w_budget, t)
        if isinstance(self.epsilon, float):
            return self.epsilon
        if t > len(self.epsilon):
            raise ValueError(f"epsilon schedule has {len(self.epsilon)} entries, round {t} asked")
        return self.epsilon[t - 1]


@dataclass(frozen=True, eq=False)
class LearnerState:
    """Everything the learner carries between rounds.

    ``psi`` is +inf until the first observation; ``eta_prev`` is None until
    the second-order statistics become positive. ``psi`` is non-increasing,
    ``V`` and ``D`` non-decreasing, so ``eta`` is non-increasing once set.
    ``weights`` holds the log class weights over ``kernel.classes``.
    """

    t: int
    psi: float
    V: float
    D: float
    eta_prev: float | None
    weights: np.ndarray


def init_state(config: LearnerConfig) -> LearnerState:
    return LearnerState(
        t=1, psi=math.inf, V=0.0, D=0.0, eta_prev=None, weights=init_weights(config.kernel)
    )


@dataclass(eq=False)
class RoundRecord:
    """One played round; the unit of the CSV transcript.

    ``selected_loss`` is the loss the learner incurred. The learner itself
    fills it only when the selected expert's loss was revealed; the game
    runner completes it from the true loss vector otherwise (NaN until
    then).
    """

    t: int
    p: np.ndarray
    q: np.ndarray
    selected: int
    outcome: ObservationOutcome
    o: np.ndarray
    phi: np.ndarray
    v_t: float
    d_t: float
    eta_t: float | None
    epsilon_t: float
    psi_t: float
    V: float
    D: float
    selected_loss: float


class RoundContext(NamedTuple):
    """Pre-selection quantities of one round."""

    epsilon: float
    p: np.ndarray
    q: np.ndarray
    o: np.ndarray


class RateUpdate(NamedTuple):
    eta: float | None
    V: float
    D: float
    v: float
    d: float


def select(q: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over experts in index order; consumes one uniform."""
    u = rng.random()
    cdf = np.cumsum(q)
    return int(min(np.searchsorted(cdf, u, side="right"), len(q) - 1))


def estimate(
    outcome: ObservationOutcome, o: np.ndarray, psi_new: float
) -> np.ndarray:
    """Importance-weighted, translation-corrected loss estimates.

    ``phi_m = (loss_m - psi_new) / o_m`` for revealed indices, 0 otherwise.
    ``psi_new`` must already include this round's observations, so every
    entry is nonnegative.
    """
    phi = np.zeros(len(o))
    for m, loss in outcome.observed_losses.items():
        if o[m] <= 0.0:
            raise ZeroObservationProbabilityError(
                f"expert {m} was observed but has observation probability {o[m]}"
            )
        phi[m] = (loss - psi_new) / o[m]
    return phi


def update_rate(
    state: LearnerState, phi: np.ndarray, p: np.ndarray, config: LearnerConfig
) -> RateUpdate:
    """Refresh the second-order statistics and the adaptive rate.

    ``d = max phi - min phi`` over all experts (unobserved zeros included),
    ``v = sum_m p_m phi_m^2``; the rate is ``gamma / sqrt(V + D^2)``. While
    ``V + D^2 == 0`` every estimate so far was exactly zero, so the rate
    stays unset and the weight update degenerates to pure kernel mixing.
    """
    d = float(phi.max() - phi.min())
    v = float(p @ (phi * phi))
    V = state.V + v
    D = max(state.D, d)
    if config.fixed_eta is not None:
        eta = config.fixed_eta
    elif V + D * D > 0.0:
        eta = config.gamma_value / math.sqrt(V + D * D)
    else:
        eta = None
    return RateUpdate(eta, V, D, v, d)


def prepare_round(
    state: LearnerState, config: LearnerConfig, matrix: FeedbackMatrix
) -> RoundContext:
    """Compute the pre-selection quantities: the class-network marginals
    ``p``, their mixture ``q`` with the uniform floor ``epsilon_t / M``, and
    the observation probabilities ``o``. Checks the observation floor
    ``o_m >= epsilon_t / M`` that a validated scheme guarantees."""
    eps = config.epsilon_at(state.t)
    p = expert_marginals(state.weights, config.kernel)
    q = (1.0 - eps) * p + eps / len(p)
    o = observation_probabilities(matrix, q)
    floor = eps / config.n_experts
    if np.any(o < floor * (1.0 - OBSERVATION_FLOOR_SLACK)):
        raise RuntimeError(
            f"observation probability {o.min():.6g} fell below the floor "
            f"{floor:.6g} at round {state.t}; the feedback scheme is invalid"
        )
    return RoundContext(eps, p, q, o)


def finish_round(
    state: LearnerState,
    config: LearnerConfig,
    ctx: RoundContext,
    selected: int,
    outcome: ObservationOutcome,
) -> tuple[RoundRecord, LearnerState]:
    """Deterministic remainder of a round once the selection and the
    observation outcome are fixed."""
    observed = outcome.observed_losses
    psi = min(state.psi, min(observed.values())) if observed else state.psi
    phi = estimate(outcome, ctx.o, psi)
    rate = update_rate(state, phi, ctx.p, config)
    if rate.eta is None:
        # all estimates so far are zero; any exponent gives the same weights
        new_weights = advance(state.weights, phi, 1.0, 1.0, config.kernel)
    elif state.eta_prev is None:
        # first informative round: prior enters at power 1, estimates at
        # the fresh rate
        new_weights = advance(state.weights, phi, rate.eta, rate.eta, config.kernel)
    else:
        new_weights = advance(state.weights, phi, state.eta_prev, rate.eta, config.kernel)
    record = RoundRecord(
        t=state.t,
        p=ctx.p,
        q=ctx.q,
        selected=selected,
        outcome=outcome,
        o=ctx.o,
        phi=phi,
        v_t=rate.v,
        d_t=rate.d,
        eta_t=rate.eta,
        epsilon_t=ctx.epsilon,
        psi_t=psi,
        V=rate.V,
        D=rate.D,
        selected_loss=observed.get(selected, math.nan),
    )
    new_state = LearnerState(
        t=state.t + 1,
        psi=psi,
        V=rate.V,
        D=rate.D,
        eta_prev=rate.eta if rate.eta is not None else state.eta_prev,
        weights=new_weights,
    )
    return record, new_state


def step(
    state: LearnerState,
    config: LearnerConfig,
    matrix: FeedbackMatrix,
    loss_oracle: Callable[[int], float],
    rng: np.random.Generator,
) -> tuple[RoundRecord, LearnerState]:
    """Play one round.

    ``loss_oracle`` is queried only at the indices the sampled indicators
    reveal. Consumes one uniform for the selection, then M uniforms for the
    indicators, in that order.
    """
    ctx = prepare_round(state, config, matrix)
    selected = select(ctx.q, rng)
    indicators = sample_indicators(matrix, selected, rng)
    observed = {int(m): float(loss_oracle(int(m))) for m in np.flatnonzero(indicators)}
    outcome = ObservationOutcome(indicators, observed)
    return finish_round(state, config, ctx, selected, outcome)
