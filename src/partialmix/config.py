"""Experiment configuration: one self-describing JSON tree.

Expert indices are 1-based in config files and CSV output (matching the
``q_1..q_M`` column labels) and 0-based inside the library. Parse errors
name the offending path, e.g. ``feedback.matrix: row 0 sums to 0.9``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import feedback as fb
from .classnet import TableKernel, fixed_kernel, fixed_share_kernel
from .environment import (
    BernoulliArm,
    CompetitorSpec,
    ConstantFeedback,
    FeedbackProcess,
    IIDLosses,
    LossProcess,
    PiecewiseLosses,
    ScriptedFeedback,
    ScriptedLosses,
    UniformArm,
    bandit_feedback,
    full_feedback_process,
)
from .evaluation import ExperimentBundle
from .learner import LearnerConfig, LearnerConfigError


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(path, f"missing required field {key!r}")
    return d[key]


def _reject_unknown(spec: dict, path: str, what: str, *known: str) -> None:
    """Reject a key that ``what`` does not read, at the key's own path."""
    for key in spec:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, f"unknown {what} option")


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {value}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    # json.load accepts NaN, Infinity and integers beyond the float range
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_matrix(value, path: str) -> np.ndarray:
    """A JSON array of number rows, all of one length, as a float array."""
    rows = []
    for i, row in enumerate(_as_list(value, path)):
        row = _as_list(row, f"{path}[{i}]")
        if rows and len(row) != len(rows[0]):
            raise ConfigError(f"{path}[{i}]", f"has {len(row)} entries, row 0 has {len(rows[0])}")
        rows.append([_as_float(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _expert_index(value, path: str, n_experts: int) -> int:
    idx = _as_int(value, path)
    if not 1 <= idx <= n_experts:
        raise ConfigError(path, f"expert index must be in 1..{n_experts}, got {idx}")
    return idx - 1


def parse_kernel(spec, n_experts: int, path: str = "kernel") -> TableKernel:
    spec = _as_object(spec, path)
    kind = _require(spec, "type", path)
    if kind == "fixed":
        _reject_unknown(spec, path, "'fixed' kernel", "type")
        return fixed_kernel(n_experts)
    if kind == "fixed_share":
        _reject_unknown(spec, path, "'fixed_share' kernel", "type", "alpha")
        alpha = _as_float(_require(spec, "alpha", path), f"{path}.alpha")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"{path}.alpha", f"must be in [0, 1], got {alpha}")
        return fixed_share_kernel(n_experts, alpha)
    if kind == "custom":
        _reject_unknown(spec, path, "'custom' kernel", "type", "classes", "prior", "transitions")
        raw_classes = _as_list(_require(spec, "classes", path), f"{path}.classes")
        # a tag only labels a class: it tells apart classes of one expert
        labels = []
        for i, c in enumerate(raw_classes):
            c = _as_object(c, f"{path}.classes[{i}]")
            _reject_unknown(c, f"{path}.classes[{i}]", "kernel class", "expert", "tag")
            expert = _expert_index(
                _require(c, "expert", f"{path}.classes[{i}]"),
                f"{path}.classes[{i}].expert",
                n_experts,
            )
            tag = c.get("tag")
            if tag is not None and not isinstance(tag, str):
                raise ConfigError(f"{path}.classes[{i}].tag", "must be a string")
            if (expert, tag) in labels:
                raise ConfigError(
                    f"{path}.classes[{i}]", f"repeats expert {expert + 1} with tag {tag!r}"
                )
            labels.append((expert, tag))
        prior = [
            _as_float(v, f"{path}.prior[{i}]")
            for i, v in enumerate(_as_list(_require(spec, "prior", path), f"{path}.prior"))
        ]
        matrix = _as_matrix(_require(spec, "transitions", path), f"{path}.transitions")
        try:
            experts = np.array([expert for expert, _ in labels], dtype=int)
            return TableKernel(experts, np.array(prior), matrix, n_experts)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.type", f"unknown kernel type {kind!r}")


def parse_loss_process(spec, n_experts: int, path: str = "loss") -> LossProcess:
    spec = _as_object(spec, path)
    kind = _require(spec, "kind", path)
    raw_range = _as_list(_require(spec, "range", path), f"{path}.range")
    if len(raw_range) != 2:
        raise ConfigError(f"{path}.range", "expected [low, high]")
    low = _as_float(raw_range[0], f"{path}.range[0]")
    high = _as_float(raw_range[1], f"{path}.range[1]")
    if not low < high:
        raise ConfigError(f"{path}.range", f"low {low} must be below high {high}")
    try:
        if kind == "scripted":
            # the losses come from a CSV file or inline, never both
            source = "csv" if "csv" in spec else "values"
            _reject_unknown(spec, path, "'scripted' loss", "kind", "range", source)
            if source == "csv":
                values = _load_loss_csv(spec["csv"], f"{path}.csv")
            else:
                values = _as_matrix(_require(spec, "values", path), f"{path}.values")
            if values.ndim != 2 or values.shape[1] != n_experts:
                raise ConfigError(
                    f"{path}.values", f"need T x {n_experts} losses, got {values.shape}"
                )
            return ScriptedLosses(values, (low, high))
        if kind == "iid":
            _reject_unknown(spec, path, "'iid' loss", "kind", "range", "arms")
            raw_arms = _as_list(_require(spec, "arms", path), f"{path}.arms")
            if len(raw_arms) != n_experts:
                raise ConfigError(f"{path}.arms", f"need {n_experts} arms, got {len(raw_arms)}")
            arms: list[UniformArm | BernoulliArm] = []
            for i, a in enumerate(raw_arms):
                a = _as_object(a, f"{path}.arms[{i}]")
                dist = _require(a, "dist", f"{path}.arms[{i}]")
                if dist == "uniform":
                    _reject_unknown(a, f"{path}.arms[{i}]", "'uniform' arm", "dist", "low", "high")
                    arms.append(
                        UniformArm(
                            _as_float(_require(a, "low", f"{path}.arms[{i}]"), f"{path}.arms[{i}].low"),
                            _as_float(_require(a, "high", f"{path}.arms[{i}]"), f"{path}.arms[{i}].high"),
                        )
                    )
                elif dist == "bernoulli":
                    _reject_unknown(a, f"{path}.arms[{i}]", "'bernoulli' arm", "dist", "p")
                    arms.append(
                        BernoulliArm(_as_float(_require(a, "p", f"{path}.arms[{i}]"), f"{path}.arms[{i}].p"))
                    )
                else:
                    raise ConfigError(f"{path}.arms[{i}].dist", f"unknown distribution {dist!r}")
            return IIDLosses(arms, (low, high))
        if kind == "piecewise":
            _reject_unknown(
                spec, path, "'piecewise' loss", "kind", "range", "best_arms", "boundaries", "gap"
            )
            best = [
                _expert_index(a, f"{path}.best_arms[{i}]", n_experts)
                for i, a in enumerate(_as_list(_require(spec, "best_arms", path), f"{path}.best_arms"))
            ]
            boundaries = [
                _as_float(b, f"{path}.boundaries[{i}]")
                for i, b in enumerate(_as_list(_require(spec, "boundaries", path), f"{path}.boundaries"))
            ]
            gap = _as_float(spec["gap"], f"{path}.gap") if "gap" in spec else None
            return PiecewiseLosses(n_experts, (low, high), best, boundaries, gap)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown loss process {kind!r}")


def _load_loss_csv(path_value, path: str) -> np.ndarray:
    if not isinstance(path_value, str):
        raise ConfigError(path, "expected a file path string")
    try:
        with open(path_value, newline="") as handle:
            rows = [[float(v) for v in row] for row in csv.reader(handle) if row]
    except (OSError, ValueError) as exc:
        raise ConfigError(path, f"cannot read loss CSV: {exc}") from exc
    if not rows:
        raise ConfigError(path, "loss CSV is empty")
    return _as_matrix(rows, path)


def parse_feedback_process(spec, n_experts: int, path: str = "feedback") -> FeedbackProcess:
    spec = _as_object(spec, path)
    kind = _require(spec, "kind", path)
    if kind == "bandit":
        _reject_unknown(spec, path, "'bandit' feedback", "kind")
        return bandit_feedback(n_experts)
    if kind == "full":
        _reject_unknown(spec, path, "'full' feedback", "kind")
        return full_feedback_process(n_experts)
    mode = spec.get("mode", "strict")
    if mode not in ("strict", "full"):
        raise ConfigError(f"{path}.mode", f"unknown mode {mode!r}")

    def build(matrix_rows, matrix_path: str) -> fb.FeedbackMatrix:
        matrix = fb.FeedbackMatrix(_as_matrix(matrix_rows, matrix_path), mode)
        if matrix.entries.ndim != 2 or matrix.entries.shape != (n_experts, n_experts):
            raise ConfigError(
                matrix_path, f"need a {n_experts} x {n_experts} matrix, got {matrix.entries.shape}"
            )
        try:
            fb.validate(matrix)
        except fb.FeedbackError as exc:
            raise ConfigError(matrix_path, str(exc)) from exc
        return matrix

    if kind == "constant":
        _reject_unknown(spec, path, "'constant' feedback", "kind", "mode", "matrix")
        return ConstantFeedback(build(_require(spec, "matrix", path), f"{path}.matrix"))
    if kind == "scripted":
        _reject_unknown(spec, path, "'scripted' feedback", "kind", "mode", "matrices")
        raw = _as_list(_require(spec, "matrices", path), f"{path}.matrices")
        return ScriptedFeedback(
            [build(rows, f"{path}.matrices[{i}]") for i, rows in enumerate(raw)]
        )
    raise ConfigError(f"{path}.kind", f"unknown feedback process {kind!r}")


def parse_competitor(spec, n_experts: int, path: str = "competitor") -> CompetitorSpec:
    spec = _as_object(spec, path)
    kind = _require(spec, "kind", path)
    try:
        if kind == "fixed":
            _reject_unknown(spec, path, "'fixed' competitor", "kind", "expert")
            return CompetitorSpec(
                "fixed", expert=_expert_index(_require(spec, "expert", path), f"{path}.expert", n_experts)
            )
        if kind == "best_fixed":
            _reject_unknown(spec, path, "'best_fixed' competitor", "kind")
            return CompetitorSpec("best_fixed")
        if kind == "best_k_switch":
            _reject_unknown(spec, path, "'best_k_switch' competitor", "kind", "switches")
            return CompetitorSpec(
                "best_k_switch", switches=_as_int(_require(spec, "switches", path), f"{path}.switches", 0)
            )
        if kind == "explicit":
            _reject_unknown(spec, path, "'explicit' competitor", "kind", "sequence")
            seq = tuple(
                _expert_index(v, f"{path}.sequence[{i}]", n_experts)
                for i, v in enumerate(_as_list(_require(spec, "sequence", path), f"{path}.sequence"))
            )
            return CompetitorSpec("explicit", sequence=seq)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown competitor kind {kind!r}")


# smallest accepted value of each ``validate`` option; a lemma run draws up
# to 3 distinct switch rounds from 1..T-1, so it needs T >= 4
VALIDATE_MINIMUMS = {
    "seed": 0,
    "oracle_instances": 0,
    "lemma_configs": 0,
    "lemma_horizon": 4,
    "affine_horizon": 1,
}


def _parse_validate(spec) -> dict:
    """Checked options of the ``validate`` subcommand; absent keys keep the
    defaults of ``run_validation_suite``."""
    spec = _as_object(spec, "validate")
    _reject_unknown(spec, "validate", "validate", *VALIDATE_MINIMUMS)
    return {
        key: _as_int(value, f"validate.{key}", VALIDATE_MINIMUMS[key])
        for key, value in spec.items()
    }


def _check_horizon(experiment: ExperimentBundle) -> None:
    """Every input bound to the horizon covers the experiment's rounds: an
    epsilon schedule, scripted losses, scripted feedback and an explicit
    competitor (which must match it exactly)."""
    horizon, epsilon = experiment.horizon, experiment.learner_config.epsilon
    if isinstance(epsilon, tuple) and len(epsilon) < horizon:
        raise ConfigError("epsilon", f"schedule has {len(epsilon)} entries, horizon is {horizon}")
    if isinstance(experiment.loss_process, ScriptedLosses):
        try:
            experiment.loss_process.generate(horizon, np.random.default_rng(0))
        except ValueError as exc:
            raise ConfigError("loss", str(exc)) from exc
    try:
        experiment.feedback_process.check_horizon(horizon)
    except ValueError as exc:
        raise ConfigError("feedback", str(exc)) from exc
    competitor = experiment.competitor
    if competitor.kind == "explicit" and len(competitor.sequence) != horizon:
        raise ConfigError(
            "competitor.sequence",
            f"has {len(competitor.sequence)} rounds, horizon is {horizon}",
        )


def _check_competitor_classes(competitor: CompetitorSpec, kernel: TableKernel) -> None:
    """A competitor given as experts maps each one to its only class:
    ``fixed`` and ``explicit`` need that of the experts they name, the
    hindsight kinds of every expert."""
    named = {"fixed": [competitor.expert], "explicit": competitor.sequence}.get(
        competitor.kind, range(kernel.n_experts)
    )
    counts = np.bincount(kernel.experts, minlength=kernel.n_experts)
    for expert in sorted(set(named)):
        if counts[expert] != 1:
            raise ConfigError(
                "competitor",
                f"expert {expert + 1} has {counts[expert]} kernel classes; "
                f"a {competitor.kind!r} competitor needs exactly one",
            )


_CONFIG_KEYS = (
    "experts", "horizon", "kernel", "w_budget", "gamma", "epsilon", "fixed_eta",
    "loss", "feedback", "competitor", "seed", "runs", "out", "write_rounds",
    "sweep", "validate",
)


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed experiment (learner, environment, horizon, competitor), seeds, output."""

    experiment: ExperimentBundle
    seed: int
    runs: int
    out: str | None
    write_rounds: bool
    sweep_horizons: tuple[int, ...] | None
    sweep_runs: int | None
    validate_options: dict


def parse_config(raw: dict) -> ExperimentConfig:
    raw = _as_object(raw, "config")
    _reject_unknown(raw, "", "config", *_CONFIG_KEYS)
    n_experts = _as_int(_require(raw, "experts", "config"), "experts", 1)
    horizon = _as_int(_require(raw, "horizon", "config"), "horizon", 1)
    kernel = parse_kernel(_require(raw, "kernel", "config"), n_experts)
    w_budget = _as_float(raw["w_budget"], "w_budget") if raw.get("w_budget") is not None else None
    gamma = _as_float(raw["gamma"], "gamma") if raw.get("gamma") is not None else None
    epsilon = raw.get("epsilon")
    if isinstance(epsilon, list):
        epsilon = [_as_float(v, f"epsilon[{i}]") for i, v in enumerate(epsilon)]
    elif epsilon is not None:
        epsilon = _as_float(epsilon, "epsilon")
    fixed_eta = _as_float(raw["fixed_eta"], "fixed_eta") if raw.get("fixed_eta") is not None else None
    try:
        learner = LearnerConfig(
            kernel=kernel, w_budget=w_budget, gamma=gamma, epsilon=epsilon, fixed_eta=fixed_eta
        )
    except LearnerConfigError as exc:
        raise ConfigError(exc.key, exc.message) from exc
    experiment = ExperimentBundle(
        learner_config=learner,
        loss_process=parse_loss_process(_require(raw, "loss", "config"), n_experts),
        feedback_process=parse_feedback_process(_require(raw, "feedback", "config"), n_experts),
        horizon=horizon,
        competitor=parse_competitor(_require(raw, "competitor", "config"), n_experts),
    )
    _check_competitor_classes(experiment.competitor, kernel)
    _check_horizon(experiment)
    seed = _as_int(raw.get("seed", 0), "seed", 0)
    runs = _as_int(raw.get("runs", 1), "runs", 1)
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", "expected a path string")
    write_rounds = raw.get("write_rounds", False)
    if not isinstance(write_rounds, bool):
        raise ConfigError("write_rounds", "expected true or false")
    sweep_horizons = None
    sweep_runs = None
    if "sweep" in raw:
        sweep = _as_object(raw["sweep"], "sweep")
        _reject_unknown(sweep, "sweep", "sweep", "horizons", "runs")
        sweep_horizons = tuple(
            _as_int(h, f"sweep.horizons[{i}]", 1)
            for i, h in enumerate(_as_list(_require(sweep, "horizons", "sweep"), "sweep.horizons"))
        )
        if len(sweep_horizons) < 1:
            raise ConfigError("sweep.horizons", "needs at least one horizon")
        for i, h in enumerate(sweep_horizons):
            if h in sweep_horizons[:i]:
                raise ConfigError(f"sweep.horizons[{i}]", f"horizon {h} is already listed")
            try:
                _check_horizon(replace(experiment, horizon=h))
            except ConfigError as exc:
                raise ConfigError(f"sweep.horizons[{i}]", str(exc)) from exc
        if "runs" in sweep:
            sweep_runs = _as_int(sweep["runs"], "sweep.runs", 1)
    validate_options = _parse_validate(raw.get("validate", {}))
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        runs=runs,
        out=out,
        write_rounds=write_rounds,
        sweep_horizons=sweep_horizons,
        sweep_runs=sweep_runs,
        validate_options=validate_options,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw)
