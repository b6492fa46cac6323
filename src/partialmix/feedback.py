"""Partial-monitoring feedback schemes.

A feedback scheme is an M x M matrix of observation probabilities:
``entries[m, m']`` is the probability that the loss of expert ``m`` is
revealed when expert ``m'`` is selected. The identity matrix gives classic
bandit feedback; mode ``"full"`` (every entry equal to one) reveals every
loss every round.

In ``"strict"`` mode every row must sum to at least one. Together with the
uniform-mixture floor on the selection probabilities this guarantees the
observation-probability floor ``o_m >= eps/M`` that keeps the learner's
importance-weighted estimates bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_SLACK = 1e-9


class FeedbackError(ValueError):
    """Base class for invalid feedback schemes."""


class EntryOutOfRangeError(FeedbackError):
    """A matrix entry lies outside [0, 1] (or differs from 1 in full mode)."""


class RowSumDeficientError(FeedbackError):
    """A strict-mode row sums to less than one."""


class DimensionMismatchError(FeedbackError):
    """Matrix shape and probability-vector length disagree."""


@dataclass(frozen=True, eq=False)
class FeedbackMatrix:
    """Observation-probability matrix together with its validation mode.

    Rows index the observed expert, columns the selected expert.
    """

    entries: np.ndarray
    mode: str = "strict"

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))

    @property
    def n_experts(self) -> int:
        return self.entries.shape[0]


def identity_feedback(n_experts: int) -> FeedbackMatrix:
    """Bandit feedback: only the selected expert's loss is revealed."""
    return FeedbackMatrix(np.eye(n_experts), "strict")


def full_feedback(n_experts: int) -> FeedbackMatrix:
    """Full feedback: every loss is revealed, regardless of the selection."""
    return FeedbackMatrix(np.ones((n_experts, n_experts)), "full")


def validate(matrix: FeedbackMatrix) -> None:
    """Check a feedback scheme against the invariants of its mode.

    Raises
    ------
    DimensionMismatchError
        If the matrix is not square or is empty.
    EntryOutOfRangeError
        If an entry is not finite, lies outside [0, 1], or differs from 1 in
        full mode.
    RowSumDeficientError
        If a strict-mode row sums to less than ``1 - 1e-9``. Such a scheme
        breaks the observation floor and voids the learner's guarantees.
    """
    entries = matrix.entries
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
        raise DimensionMismatchError(
            f"feedback matrix must be square and nonempty, got shape {entries.shape}"
        )
    if matrix.mode not in ("strict", "full"):
        raise FeedbackError(f"unknown feedback mode {matrix.mode!r}")
    if not np.all(np.isfinite(entries)):
        m, mp = np.argwhere(~np.isfinite(entries))[0]
        raise EntryOutOfRangeError(f"entry ({m}, {mp}) = {entries[m, mp]} is not finite")
    if np.any(entries < 0.0) or np.any(entries > 1.0):
        m, mp = np.argwhere((entries < 0.0) | (entries > 1.0))[0]
        raise EntryOutOfRangeError(
            f"entry ({m}, {mp}) = {entries[m, mp]:.6g} outside [0, 1]"
        )
    if matrix.mode == "full":
        if not np.all(entries == 1.0):
            m, mp = np.argwhere(entries != 1.0)[0]
            raise EntryOutOfRangeError(
                f"full mode requires every entry to equal 1, entry ({m}, {mp}) = "
                f"{entries[m, mp]:.6g}"
            )
        return
    row_sums = entries.sum(axis=1)
    deficient = np.flatnonzero(row_sums < 1.0 - ROW_SUM_SLACK)
    if deficient.size:
        m = deficient[0]
        raise RowSumDeficientError(f"row {m} sums to {row_sums[m]:.6g}, below 1")


@dataclass(frozen=True, eq=False)
class ObservationOutcome:
    """Which losses one round revealed, and their values.

    ``observed_losses`` has an entry exactly for the indices with
    indicator 1.
    """

    indicators: np.ndarray
    observed_losses: dict[int, float]

    def __post_init__(self) -> None:
        indicators = np.asarray(self.indicators, dtype=np.int8)
        object.__setattr__(self, "indicators", indicators)
        revealed = set(int(m) for m in np.flatnonzero(indicators))
        if set(self.observed_losses) != revealed:
            raise ValueError(
                "observed_losses keys must match the indicator-1 indices: "
                f"{sorted(self.observed_losses)} vs {sorted(revealed)}"
            )

    @property
    def observed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.indicators)


def observation_probabilities(matrix: FeedbackMatrix, q: np.ndarray) -> np.ndarray:
    """Per-expert probability of observing each loss under selection law ``q``.

    ``o_m = sum_m' entries[m, m'] * q[m']``. Affine in ``q`` by construction.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (matrix.n_experts,):
        raise DimensionMismatchError(
            f"selection probabilities have shape {q.shape}, matrix expects "
            f"({matrix.n_experts},)"
        )
    return matrix.entries @ q


def sample_indicators(
    matrix: FeedbackMatrix, selected: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the observation indicators for one round.

    Indicators are independent Bernoulli draws with success probability
    ``entries[m, selected]``, consuming one uniform per expert in index
    order ``m = 0..M-1``.
    """
    u = rng.random(matrix.n_experts)
    return (u < matrix.entries[:, selected]).astype(np.int8)

