"""Competition-class weight network.

Competitor sequences are grouped into equivalence classes keyed by the
parameters active at each round (at minimum the currently selected
expert). A kernel is a Markov prior over class successions: its initial
distribution plus one row-stochastic transition table, the same at every
round, implicitly assign a prior weight to every competitor sequence, and
the negative log of that path weight measures how hard the competitor is
to track.

Class weights are a plain array of natural-log weights over the kernel's
classes; a class without mass holds ``-inf``. The log domain is needed
because the exponential update can reach ``exp(-eta * M * range / eps)``
scales that underflow linear arithmetic. Each update applies the
exponential step at the previous learning rate, rescales the accumulated
mass by the rate ratio so that past updates stay consistent when the rate
drops, then mixes through the kernel.
"""

from __future__ import annotations

import math

import numpy as np

SUM_TOLERANCE = 1e-9
RATE_INCREASE_SLACK = 1e-12


class ClassNetError(ValueError):
    """Base class for class-network errors."""


class EmptyClassSetError(ClassNetError):
    """No class carries positive weight."""


class RateIncreaseError(ClassNetError):
    """Learning rates must be non-increasing."""


class NegativePhiError(ClassNetError):
    """Loss estimates fed to the weight update must be nonnegative."""


class ZeroTransitionError(ClassNetError):
    """A competitor sequence leaves the kernel's support."""


def logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) with max-subtraction; tolerates -inf entries."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        s = np.log(np.exp(a - safe).sum(axis=axis, keepdims=True)) + safe
    if axis is None:
        return float(s.reshape(()))
    return np.squeeze(s, axis=axis)


class TableKernel:
    """Time-invariant Markov prior over class successions.

    A class is an index ``i`` into ``experts``, the int array of each
    class's expert; an expert may have several classes or none. ``prior``
    is the initial distribution over classes and ``matrix`` the
    row-stochastic transition table (rows are predecessors);
    ``log_matrix`` holds its logs with zeros as ``-inf``. Kernels are
    immutable and freely shareable across runs.

    A table of the form ``off * J + diag(stay)`` with ``stay >= 0`` (fixed
    and fixed-share kernels among them) mixes in O(n) through the closed
    form of Herbster & Warmuth, "Tracking the best expert" (1998); any
    other table mixes through the dense ``log_matrix``.
    """

    def __init__(
        self, experts: np.ndarray, prior: np.ndarray, matrix: np.ndarray, n_experts: int
    ):
        experts = np.asarray(experts)
        if experts.size == 0:
            raise EmptyClassSetError("kernel needs at least one class")
        if experts.ndim != 1 or experts.dtype.kind not in "iu":
            raise ClassNetError("class experts must be a 1-D integer array")
        prior = np.asarray(prior, dtype=float)
        matrix = np.asarray(matrix, dtype=float)
        n = len(experts)
        if prior.shape != (n,):
            raise ClassNetError(f"prior has shape {prior.shape}, expected ({n},)")
        if matrix.shape != (n, n):
            raise ClassNetError(f"transition table has shape {matrix.shape}, expected ({n}, {n})")
        if not (np.all(np.isfinite(prior)) and np.all(np.isfinite(matrix))):
            raise ClassNetError("kernel weights must be finite")
        if np.any(prior < 0.0) or np.any(matrix < 0.0):
            raise ClassNetError("kernel weights must be nonnegative")
        if abs(prior.sum() - 1.0) > SUM_TOLERANCE:
            raise ClassNetError(f"initial prior sums to {prior.sum():.12g}, not 1")
        row_sums = matrix.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > SUM_TOLERANCE)
        if bad.size:
            raise ClassNetError(
                f"transition row {bad[0]} sums to {row_sums[bad[0]]:.12g}, not 1"
            )
        self.n_experts = int(n_experts)
        if np.any(experts < 0) or np.any(experts >= self.n_experts):
            raise ClassNetError("class expert index out of range")
        self.prior = prior
        self.matrix = matrix
        self.experts = experts.astype(int)
        # class i is expert i: advance and expert_marginals skip the gather
        # and the grouping, exactly, since 0.0 + w == w
        self._identity = n == self.n_experts and bool(np.all(self.experts == np.arange(n)))
        # the class of each expert that has exactly one, else -1
        counts = np.bincount(self.experts, minlength=self.n_experts)
        self._class_of = np.full(self.n_experts, -1)
        single = counts[self.experts] == 1
        self._class_of[self.experts[single]] = np.flatnonzero(single)
        with np.errstate(divide="ignore"):
            self.log_matrix = np.log(matrix)
        # the O(n) form needs one off-diagonal value; n = 1 has none
        self._log_stay = self._log_off = None
        if n > 1:
            off = matrix[0, 1]
            stay = np.diag(matrix) - off
            if np.all(matrix[~np.eye(n, dtype=bool)] == off) and np.all(stay >= 0.0):
                with np.errstate(divide="ignore"):
                    self._log_stay = np.log(stay)
                    self._log_off = math.log(off) if off > 0.0 else -math.inf

    def mix(self, scaled: np.ndarray) -> np.ndarray:
        """New log weights ``log sum_i T[i, j] exp(scaled[i])`` for every
        successor class ``j``. An all ``-inf`` input is returned as is."""
        if self._log_stay is None:
            return logsumexp(self.log_matrix + scaled[:, None], axis=0)
        top = scaled.max()
        if top == -math.inf:
            return scaled
        log_total = top + math.log(np.exp(scaled - top).sum())
        return np.logaddexp(self._log_stay + scaled, self._log_off + log_total)

    def class_count(self, horizon: int) -> int:
        """Class-set size entering the complexity of a ``horizon``-round
        path. A one-round horizon sees only the virtual root, of size 1."""
        if horizon < 1:
            raise ClassNetError("horizon must be at least 1")
        return 1 if horizon == 1 else len(self.experts)

    def path_log_factors(self, classes: np.ndarray) -> np.ndarray:
        """Per-round log prior factors of a class path; the round-1 factor is
        the initial prior."""
        logs = np.empty(len(classes))
        with np.errstate(divide="ignore"):
            logs[0] = np.log(self.prior[classes[0]])
        logs[1:] = self.log_matrix[classes[:-1], classes[1:]]
        if not np.all(np.isfinite(logs)):
            t = int(np.flatnonzero(~np.isfinite(logs))[0])
            raise ZeroTransitionError(
                f"zero prior weight into class {classes[t]} at round {t + 1}"
            )
        return logs


def fixed_kernel(n_experts: int) -> TableKernel:
    """Fixed competition: one class per expert, uniform prior, identity
    transitions."""
    prior = np.full(n_experts, 1.0 / n_experts)
    return TableKernel(np.arange(n_experts), prior, np.eye(n_experts), n_experts)


def fixed_share_kernel(n_experts: int, alpha: float) -> TableKernel:
    """Switching competition: stay with weight ``1 - alpha``, move to each
    other expert with weight ``alpha / (M - 1)``; uniform prior."""
    if not 0.0 <= alpha <= 1.0:
        raise ClassNetError(f"alpha must be in [0, 1], got {alpha}")
    if n_experts == 1:
        if alpha > 0.0:
            raise ClassNetError("alpha must be 0 with a single expert")
        return fixed_kernel(1)
    matrix = np.full((n_experts, n_experts), alpha / (n_experts - 1))
    for m in range(n_experts):
        matrix[m, m] = 1.0 - alpha
        # one compensation pass keeps the row sum at 1.0 to the last ulp
        matrix[m, m] += 1.0 - matrix[m].sum()
    prior = np.full(n_experts, 1.0 / n_experts)
    return TableKernel(np.arange(n_experts), prior, matrix, n_experts)


def init_weights(kernel: TableKernel) -> np.ndarray:
    """Round-1 log weights: the log of the kernel's initial prior, ``-inf``
    for zero-prior classes."""
    with np.errstate(divide="ignore"):
        return np.log(kernel.prior)


def advance(
    log_w: np.ndarray,
    phi: np.ndarray,
    eta_prev: float,
    eta_new: float,
    kernel: TableKernel,
) -> np.ndarray:
    """One weight update: exponential step, rate-ratio power correction,
    kernel mixing.

    In the log domain: ``log z = log w - eta_prev * phi[expert]`` per class,
    then for each successor class the new log weight is the logsumexp over
    predecessors of ``log T(succ | pred) + (eta_new / eta_prev) * log z``
    (``kernel.mix``).
    The result is shifted so its maximum is 0, which leaves probabilities
    untouched. All probabilities are invariant to adding a constant to
    every log weight.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (kernel.n_experts,):
        raise ClassNetError(f"phi has shape {phi.shape}, expected ({kernel.n_experts},)")
    # one reduction; a NaN fails the comparison too and is named here
    if not phi.min() >= 0.0:
        if np.isnan(phi).any():
            raise NegativePhiError(f"loss estimate {int(np.isnan(phi).argmax())} is NaN")
        raise NegativePhiError(f"loss estimates must be nonnegative, got min {phi.min()}")
    if eta_prev <= 0.0 or eta_new <= 0.0:
        raise ClassNetError("learning rates must be positive")
    if eta_new > eta_prev * (1.0 + RATE_INCREASE_SLACK):
        raise RateIncreaseError(f"rate increased from {eta_prev} to {eta_new}")
    log_z = log_w - eta_prev * (phi if kernel._identity else phi[kernel.experts])
    scaled = (eta_new / eta_prev) * log_z
    new_log = kernel.mix(scaled)
    top = new_log.max()
    if top == -math.inf:
        raise EmptyClassSetError("all classes lost their mass")
    return new_log - top


def expert_marginals(log_w: np.ndarray, kernel: TableKernel) -> np.ndarray:
    """Probability over experts obtained by summing class weights per expert
    and normalizing. Experts with no class mass get probability 0."""
    # exponentiate against the max before grouping; log weights are kept
    # max-normalized by advance, so this is as stable as a grouped logsumexp
    if log_w.shape != kernel.experts.shape:
        raise ClassNetError(f"log_w has shape {log_w.shape}, expected {kernel.experts.shape}")
    mass = np.exp(log_w - log_w.max())
    if kernel._identity:
        return mass / mass.sum()
    per_expert = np.bincount(kernel.experts, weights=mass, minlength=kernel.n_experts)
    return per_expert / per_expert.sum()


class CompetitorSequence:
    """A deterministic path of ``kernel`` class indices; ``experts`` holds
    their experts, the selection sequence the learner is scored against.
    Both are read-only int arrays."""

    def __init__(self, classes: np.ndarray | list[int], kernel: TableKernel):
        classes = np.array(classes, dtype=int)
        if np.any(classes < 0) or np.any(classes >= len(kernel.experts)):
            raise ClassNetError("class index out of range")
        experts = kernel.experts[classes]
        classes.flags.writeable = experts.flags.writeable = False
        self.classes = classes
        self.experts = experts

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def n_switches(self) -> int:
        return int(np.count_nonzero(self.experts[1:] != self.experts[:-1]))

    @classmethod
    def from_experts(
        cls, experts: np.ndarray | list[int], kernel: TableKernel
    ) -> "CompetitorSequence":
        """The path through each expert's only class."""
        experts = np.asarray(experts, dtype=int)
        if np.any(experts < 0) or np.any(experts >= kernel.n_experts):
            raise ClassNetError("expert index out of range")
        classes = kernel._class_of[experts]
        if np.any(classes < 0):
            expert = int(experts[np.argmax(classes < 0)])
            raise ClassNetError(
                f"expert {expert} maps to {np.count_nonzero(kernel.experts == expert)} "
                "classes; an explicit class sequence is required"
            )
        return cls(classes, kernel)


def complexity(kernel: TableKernel, competitor: CompetitorSequence) -> float:
    """Tracking complexity of a competitor: log of the class count, minus
    the log prior weight of its class path (the initial prior is the
    round-1 factor).

    Raises ``ZeroTransitionError`` if the path leaves the kernel's support.
    """
    factors = kernel.path_log_factors(competitor.classes)
    return math.log(kernel.class_count(len(competitor))) - float(factors.sum())
