"""Core sequential learner.

Each round: mix the class-network marginals with a uniform floor, sample a
selection, sample which losses the feedback scheme reveals, translate the
revealed losses by the running minimum observed so far, importance-weight
them by their observation probabilities, refresh the second-order
statistics and the adaptive learning rate, and push the estimates through
the class-weight update.

The learner never reads a loss it did not observe: it receives a loss
*oracle* and queries it once per round, at revealed indices only. It
also never uses the loss range; translation by the running minimum makes
its behavior invariant under affine transforms of the losses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .classnet import TableKernel, advance, expert_marginals, init_weights
from .feedback import FeedbackMatrix, observation_probabilities, revealed_indices, sample_indicators

OBSERVATION_FLOOR_SLACK = 1e-9


class ZeroObservationProbabilityError(ValueError):
    """An observed index has zero observation probability."""


class LearnerConfigError(ValueError):
    """An invalid ``LearnerConfig`` field; ``key`` names it as a config file does."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key, self.message = key, message


def epsilon_schedule(n_experts: int, w_budget: float, t: int) -> float:
    """Uniform-mixture coefficient ``min(1, M^(1/3) W^(1/3) t^(-1/3))``."""
    if t < 1:
        raise ValueError("round index starts at 1")
    return min(1.0, n_experts ** (1.0 / 3.0) * w_budget ** (1.0 / 3.0) * t ** (-1.0 / 3.0))


def _finite(value, name: str) -> float:
    """``value`` as a float; booleans and non-finite numbers raise, as the
    config parser's ``_as_float`` does."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise LearnerConfigError(name, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise LearnerConfigError(name, f"must be finite, got {value!r}")
    return number


@dataclass(frozen=True, eq=False)
class LearnerConfig:
    """Static learner parameters.

    The kernel fixes the expert count ``n_experts``; a count passed by
    keyword is only checked against it. ``gamma`` defaults to
    ``sqrt(w_budget)``. ``epsilon`` may be a fixed value or an explicit
    non-increasing schedule; by default the ``epsilon_schedule`` driven by
    ``w_budget`` is used. ``fixed_eta`` disables rate adaptation
    (debugging / oracle comparisons).
    """

    kernel: TableKernel
    w_budget: float | None = None
    gamma: float | None = None
    epsilon: float | Sequence[float] | None = None
    fixed_eta: float | None = None
    n_experts: InitVar[int | None] = None

    def __post_init__(self, n_experts: int | None) -> None:
        if n_experts is not None and (
            isinstance(n_experts, bool) or n_experts != self.kernel.n_experts
        ):
            raise LearnerConfigError("n_experts", f"kernel covers {self.kernel.n_experts} "
                                     f"experts, config says {n_experts!r}")
        object.__setattr__(self, "n_experts", self.kernel.n_experts)
        for name in ("w_budget", "gamma", "fixed_eta"):
            value = getattr(self, name)
            if value is not None:
                value = _finite(value, name)
                if value <= 0.0:
                    raise LearnerConfigError(name, "must be positive")
                object.__setattr__(self, name, value)
        if self.gamma is None and self.w_budget is None:
            raise LearnerConfigError("w_budget", "either gamma or w_budget is required")
        if self.gamma is None:
            object.__setattr__(self, "gamma", math.sqrt(self.w_budget))
        if self.epsilon is None and self.w_budget is None:
            raise LearnerConfigError("w_budget", "the default epsilon schedule needs w_budget")
        if self.epsilon is not None and np.ndim(self.epsilon) > 0:
            eps = tuple(_finite(e, f"epsilon[{i}]") for i, e in enumerate(self.epsilon))
            if not eps:
                raise LearnerConfigError("epsilon", "schedule is empty")
            for i, e in enumerate(eps):
                if not 0.0 <= e <= 1.0:
                    raise LearnerConfigError(f"epsilon[{i}]", "must lie in [0, 1]")
                if i and e > eps[i - 1] + 1e-12:
                    raise LearnerConfigError(f"epsilon[{i}]", "schedule must be non-increasing")
            object.__setattr__(self, "epsilon", eps)
        elif self.epsilon is not None:
            e = _finite(self.epsilon, "epsilon")
            if not 0.0 <= e <= 1.0:
                raise LearnerConfigError("epsilon", "must lie in [0, 1]")
            object.__setattr__(self, "epsilon", e)

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
    ``weights`` holds the log weights of the kernel's classes.
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


class RoundContext(NamedTuple):
    """Pre-selection quantities of one round; ``o_min`` is the smallest
    observation probability, the entry the floor check reads."""

    epsilon: float
    p: np.ndarray
    q: np.ndarray
    o: np.ndarray
    o_min: float


class RateUpdate(NamedTuple):
    eta: float | None
    V: float
    D: float
    v: float
    d: float


def select(q: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over experts in index order; consumes one uniform."""
    u = rng.random()
    cdf = np.add.accumulate(q)
    return int(min(cdf.searchsorted(u, side="right"), len(q) - 1))


def estimate(observed, revealed, o: np.ndarray, psi_new: float) -> np.ndarray:
    """Importance-weighted, translation-corrected loss estimates.

    ``observed`` is one revealed index as an int with its loss, or an index
    array with the losses there. ``phi_m = (loss_m - psi_new) / o_m`` for
    revealed indices, 0 otherwise. ``psi_new`` must already include this
    round's observations, so every entry is nonnegative.
    """
    one = isinstance(observed, int)
    if not one and len(revealed) != len(observed):
        raise ValueError(f"{len(observed)} indices revealed, {len(revealed)} losses given")
    phi = np.zeros(len(o))
    o_at = o[observed]
    # the revealed index least likely to be seen, where a zero would show
    m = observed if one else observed[o_at.argmin()] if len(o_at) else None
    if m is not None and o[m] <= 0.0:
        raise ZeroObservationProbabilityError(
            f"expert {m} was observed but has observation probability {o[m]}"
        )
    phi[observed] = (revealed - psi_new) / o_at
    return phi


def update_rate(
    state: LearnerState, phi: np.ndarray, p: np.ndarray, config: LearnerConfig, observed=None
) -> RateUpdate:
    """Refresh the second-order statistics and the adaptive rate.

    ``d = max phi - min phi`` over all experts (unobserved zeros included),
    ``v = sum_m p_m phi_m^2``; the rate is ``gamma / sqrt(V + D^2)``. While
    ``V + D^2 == 0`` every estimate so far was exactly zero, so the rate
    stays unset and the weight update degenerates to pure kernel mixing.

    An int ``observed`` says ``phi`` is +0.0 but at that index. Then ``d``
    and ``v`` read that entry alone, with the dense bits: argmax and argmin
    take the first of equal entries, and the dot product adds exact +0.0s.
    """
    if isinstance(observed, int):
        x = float(phi[observed])
        d = x if x > 0.0 and len(phi) > 1 else x - x
        v = float(p[observed]) * (x * x)
    else:
        d = float(phi[phi.argmax()] - phi[phi.argmin()])
        v = float(p @ (phi * phi))
    V = state.V + v
    D = max(state.D, d)
    if config.fixed_eta is not None:
        eta = config.fixed_eta
    elif V + D * D > 0.0:
        eta = config.gamma / math.sqrt(V + D * D)
    else:
        eta = None
    return RateUpdate(eta, V, D, v, d)


def prepare_round(
    state: LearnerState, config: LearnerConfig, matrix: FeedbackMatrix
) -> RoundContext:
    """Compute the pre-selection quantities: the class-network marginals
    ``p``, their mixture ``q`` with the uniform floor ``epsilon_t / M``, and
    the observation probabilities ``o`` and their minimum ``o_min``. Checks
    the observation floor ``o_m >= epsilon_t / M`` that a validated scheme
    guarantees."""
    eps = config.epsilon_at(state.t)
    p = expert_marginals(state.weights, config.kernel)
    q = (1.0 - eps) * p + eps / len(p)
    o = observation_probabilities(matrix, q)
    floor = eps / config.n_experts
    # one index lookup, which is the min or the first NaN; a NaN fails the
    # comparison too and is named here
    o_min = o[o.argmin()]
    if not o_min >= floor * (1.0 - OBSERVATION_FLOOR_SLACK):
        if np.isnan(o_min):
            raise RuntimeError(
                f"observation probability {int(np.isnan(o).argmax())} is NaN at round "
                f"{state.t}, so the floor {floor:.6g} cannot hold; the feedback scheme is invalid"
            )
        raise RuntimeError(
            f"observation probability {o_min:.6g} fell below the floor "
            f"{floor:.6g} at round {state.t}; the feedback scheme is invalid"
        )
    return RoundContext(eps, p, q, o, o_min)


def finish_round(
    state: LearnerState, config: LearnerConfig, ctx: RoundContext, observed, revealed
) -> tuple[np.ndarray, RateUpdate, LearnerState]:
    """Deterministic remainder of a round once the observation is fixed:
    the revealed indices and their losses, as ``estimate`` takes them.
    Returns the estimates, the rate update and the next state."""
    if isinstance(observed, int):
        revealed = lowest = float(revealed)
    else:  # the first of equal minima, as a left-to-right min keeps it
        lowest = float(revealed[revealed.argmin()]) if len(revealed) else math.inf
    psi = min(state.psi, lowest)
    phi = estimate(observed, revealed, ctx.o, psi)
    rate = update_rate(state, phi, ctx.p, config, observed)
    # an unset rate means every estimate so far is zero, so any exponent
    # gives the same weights; V and D never decrease, so it also means an
    # unset eta_prev. The first informative round takes the prior at power
    # 1 and the estimates at the fresh rate.
    eta_new = 1.0 if rate.eta is None else rate.eta
    eta_prev = eta_new if state.eta_prev is None else state.eta_prev
    new_state = LearnerState(
        t=state.t + 1,
        psi=psi,
        V=rate.V,
        D=rate.D,
        eta_prev=rate.eta,
        weights=advance(state.weights, phi, eta_prev, eta_new, config.kernel),
    )
    return phi, rate, new_state


def step(
    state: LearnerState,
    config: LearnerConfig,
    matrix: FeedbackMatrix,
    loss_oracle: Callable,
    rng: np.random.Generator,
) -> tuple[RoundContext, int, np.ndarray, np.ndarray, RateUpdate, LearnerState]:
    """Play one round; returns the round's context, the selection, the
    int8 indicators, the estimates, the rate update and the next state.

    ``loss_oracle(observed)`` answers as a loss row ``row[observed]`` does,
    queried once with ``revealed_indices``: an int when the round reveals
    one loss, an index array otherwise. Consumes one uniform for the
    selection, then M uniforms for the indicators, in that order.
    """
    ctx = prepare_round(state, config, matrix)
    selected = select(ctx.q, rng)
    indicators = sample_indicators(matrix, selected, rng)
    observed = revealed_indices(matrix, selected, indicators)
    phi, rate, new_state = finish_round(state, config, ctx, observed, loss_oracle(observed))
    return ctx, selected, indicators, phi, rate, new_state
