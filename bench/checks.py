"""Correctness checks on each workload's outputs, computed apart from the
program: an independent k-switch dynamic program on regenerated losses,
the fixed-share complexity and the regret bound in closed form, and the
learner's invariants read back from ``rounds.csv``.

Every check returns a list of error strings; an empty list means it held.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

Z_95 = 1.959963984540054


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def epsilons(m: int, w: float, horizon: int) -> np.ndarray:
    t = np.arange(1, horizon + 1, dtype=float)
    return np.minimum(1.0, (m * w / t) ** (1.0 / 3.0))


def bound_theorem(m: int, w: float, gamma: float, eps: np.ndarray) -> float:
    """The paper's finite-horizon normalized regret bound."""
    eps_t = float(eps[-1])
    sum_inv = float((1.0 / eps).sum())
    return (
        1.0 + m / eps_t + float(eps.sum())
        + gamma * math.sqrt(m * sum_inv)
        + ((w + gamma) / gamma) * math.sqrt(m * sum_inv + m * m / (eps_t * eps_t))
    )


def fixed_share_complexity(m: int, alpha: float, horizon: int, switches: int) -> float:
    return (
        math.log(m) - math.log(1.0 / m)
        - (horizon - 1 - switches) * math.log(1.0 - alpha)
        - switches * math.log(alpha / (m - 1))
    )


def piecewise_losses(spec: dict, m: int, horizon: int, seed: int) -> np.ndarray:
    """The loss matrix a seeded game draws: the loss stream is the first
    child of ``SeedSequence(seed)``, one uniform per (round, expert)."""
    low, high = spec["range"]
    gap = spec.get("gap", 0.2 * (high - low))
    width = high - low - gap
    loss_seq, _ = np.random.SeedSequence(seed).spawn(2)
    u = np.random.default_rng(loss_seq).random((horizon, m))
    starts = [0] + [int(round(b * horizon)) for b in spec["boundaries"]] + [horizon]
    favourite = np.empty(horizon, dtype=int)
    for arm, lo, hi in zip(spec["best_arms"], starts, starts[1:]):
        favourite[lo:hi] = arm - 1
    is_best = favourite[:, None] == np.arange(m)
    return np.where(is_best, low + u * width, low + gap + u * width)


def k_switch_optimum(losses: np.ndarray, k: int) -> float:
    """Least total loss over expert sequences with at most k switches."""
    cost = np.tile(losses[0], (k + 1, 1))
    for row in losses[1:]:
        switched = np.full_like(cost, np.inf)
        switched[1:] = cost[:-1].min(axis=1, keepdims=True)
        cost = np.minimum(cost, switched) + row
    return float(cost[k].min())


def switching_batch(config_path: Path, base_seed: int, games: int, batch_json: Path,
                    results: list[dict]) -> list[str]:
    raw = json.loads(config_path.read_text())
    m, horizon, w_budget = raw["experts"], raw["horizon"], raw["w_budget"]
    alpha, k = raw["kernel"]["alpha"], raw["competitor"]["switches"]
    errors = []
    seeds = [r["seed"] for r in results]
    if seeds != [base_seed + i for i in range(games)]:
        errors.append(f"batch played seeds {seeds}, expected {games} from {base_seed}")
    for r in results:
        s = r["n_switches"]
        if s > k:
            errors.append(f"seed {r['seed']}: competitor switches {s} times, budget {k}")
        optimum = k_switch_optimum(piecewise_losses(raw["loss"], m, horizon, r["seed"]), k)
        if not _close(r["competitor_loss"], optimum, 1e-9):
            errors.append(f"seed {r['seed']}: competitor loss {r['competitor_loss']!r}, "
                          f"{k}-switch optimum {optimum!r}")
        closed = fixed_share_complexity(m, alpha, horizon, s)
        if not _close(r["complexity"], closed, 1e-9):
            errors.append(f"seed {r['seed']}: complexity {r['complexity']!r}, closed form {closed!r}")
        if not _close(r["regret"], r["learner_loss"] - r["competitor_loss"], 1e-12):
            errors.append(f"seed {r['seed']}: regret differs from learner minus competitor loss")
    summary = json.loads(batch_json.read_text())
    regrets = np.array([r["regret"] for r in results])
    if summary["n_seeds"] != games or len(regrets) != games:
        return errors + [f"batch.json has {summary['n_seeds']} seeds, {len(regrets)} captured"]
    mean = float(regrets.mean())
    se = float(regrets.std(ddof=1) / math.sqrt(games))
    ci = (mean - Z_95 * se, mean + Z_95 * se)
    for key, expected in (("mean_regret", mean), ("std_error", se)):
        if not _close(summary[key], expected, 1e-12):
            errors.append(f"batch.json {key} {summary[key]!r}, recomputed {expected!r}")
    for got, expected in zip(summary["confidence_interval"], ci):
        if not _close(got, expected, 1e-12):
            errors.append(f"batch.json confidence interval {got!r}, recomputed {expected!r}")
    w = max(r["complexity"] for r in results)
    bound = bound_theorem(m, w, math.sqrt(w_budget), epsilons(m, w_budget, horizon))
    if not _close(summary["bound_theorem"], bound, 1e-9):
        errors.append(f"batch.json bound {summary['bound_theorem']!r}, closed form {bound!r}")
    if ci[1] > bound:
        errors.append(f"confidence interval upper end {ci[1]!r} exceeds the bound {bound!r}")
    return errors


def wide_run(config_path: Path, artifacts: Path) -> list[str]:
    raw = json.loads(config_path.read_text())
    m, horizon, w_budget = raw["experts"], raw["horizon"], raw["w_budget"]
    alpha, k = raw["kernel"]["alpha"], raw["competitor"]["switches"]
    errors = []
    with open(artifacts / "rounds.csv") as handle:
        header = handle.readline().rstrip("\n").split(",")
    col = {name: i for i, name in enumerate(header)}
    data = np.loadtxt(artifacts / "rounds.csv", delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (horizon, 13 + m):
        return [f"rounds.csv has shape {data.shape}, expected ({horizon}, {13 + m})"]
    if not np.array_equal(data[:, col["t"]], np.arange(1, horizon + 1)):
        errors.append("rounds.csv rounds are not 1..T")
    q = data[:, col["q_1"]:]
    eps = data[:, col["epsilon"]]
    if np.max(np.abs(q.sum(axis=1) - 1.0)) > 1e-12:
        errors.append(f"a q row sums {np.max(np.abs(q.sum(axis=1) - 1.0)):.3e} away from 1")
    if np.any(q < (eps / m)[:, None] * (1.0 - 1e-12)):
        errors.append("some q_m falls below epsilon_t / M")
    if np.max(np.abs(eps - epsilons(m, w_budget, horizon))) > 1e-12:
        errors.append("epsilon_t differs from min(1, (M W / t)^(1/3))")
    eta = data[:, col["eta"]]
    is_set = ~np.isnan(eta)
    first = int(np.argmax(is_set)) if is_set.any() else horizon
    if not is_set[first:].all() or np.any(np.diff(eta[first:]) > 0.0):
        errors.append("eta is not non-increasing once set")
    for name, sign in (("V", 1.0), ("D", 1.0), ("psi", -1.0)):
        if np.any(sign * np.diff(data[:, col[name]]) < 0.0):
            errors.append(f"{name} is not {'non-decreasing' if sign > 0 else 'non-increasing'}")
    loss = data[:, col["loss"]]
    competitor_loss = data[:, col["competitor_loss"]]
    scale = np.arange(1, horizon + 1) * 1e-12
    if np.any(np.abs(data[:, col["cum_loss"]] - np.cumsum(loss)) > scale):
        errors.append("cum_loss disagrees with the running sum of loss")
    if np.any(np.abs(data[:, col["regret"]] - np.cumsum(loss - competitor_loss)) > scale):
        errors.append("regret disagrees with the running sum of loss - competitor_loss")
    report = json.loads((artifacts / "report.json").read_text())
    if not _close(report["realized_regret"], float(data[-1, col["regret"]]), 1e-12):
        errors.append("final regret disagrees with report.json")
    arms = data[:, col["competitor_arm"]].astype(int)
    switches = int(np.count_nonzero(arms[1:] != arms[:-1]))
    if switches > k:
        errors.append(f"competitor switches {switches} times, budget {k}")
    w = fixed_share_complexity(m, alpha, horizon, switches)
    if not _close(report["complexity"], w, 1e-9):
        errors.append(f"complexity {report['complexity']!r}, closed form {w!r}")
    if w > w_budget or report["budget_exceeded"]:
        errors.append(f"competitor complexity {w!r} exceeds the budget {w_budget}")
    bound = bound_theorem(m, w, math.sqrt(w_budget), epsilons(m, w_budget, horizon))
    if not _close(report["bound_theorem"], bound, 1e-9):
        errors.append(f"report.json bound {report['bound_theorem']!r}, closed form {bound!r}")
    diagnostics = report.get("diagnostics", {})
    expected = {"variance_sum", "rate_drop", "tracking", "observation_floor"}
    if set(diagnostics) != expected or not all(d["passed"] for d in diagnostics.values()):
        errors.append(f"diagnostics missing or failing: {diagnostics}")
    return errors


_PATTERNS = {
    "oracle_weight_equivalence": (r"(\d+) instances", ("oracle_instances",)),
    "deterministic_inequalities": (r"(\d+) runs of (\d+) rounds", ("lemma_configs", "lemma_horizon")),
    "affine_invariance": (None, ()),
}


def validate_output(config_path: Path, exit_code, stdout: str) -> list[str]:
    """Three PASS lines whose printed counts equal the requested ones."""
    options = json.loads(config_path.read_text())["validate"]
    errors = [] if exit_code == 0 else [f"validate exited {exit_code}"]
    lines = [line for line in stdout.splitlines() if line.strip()]
    names = [line.split(":")[0].split(" ", 1)[-1] for line in lines]
    if names != list(_PATTERNS):
        return errors + [f"validate printed checks {names}, expected {list(_PATTERNS)}"]
    for line, name in zip(lines, names):
        if not line.startswith("PASS "):
            errors.append(f"validate: {line}")
        pattern, keys = _PATTERNS[name]
        if pattern is None:
            continue
        found = re.search(pattern, line)
        wanted = tuple(options[key] for key in keys)
        if found is None or tuple(int(g) for g in found.groups()) != wanted:
            errors.append(f"validate printed '{line}', requested {dict(zip(keys, wanted))}")
    return errors
