"""Config-driven experiment runner.

Subcommands: ``run`` (single game, per-round CSV plus report JSON),
``batch`` (Monte-Carlo over seeds), ``sweep`` (batch per horizon plus a
scaling fit), ``validate`` (oracle equivalences, randomized inequality
sweeps, affine invariance). Exit codes: 0 success, 1 validation failure,
2 configuration error.

Outputs carry no timestamps and floats are rendered with 17 significant
digits, so identical configs and seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .environment import GameTranscript
from .evaluation import (
    BatchSummary,
    BoundValue,
    DegenerateFitError,
    RegretReport,
    fit_scaling,
    monte_carlo,
    play_and_score,
    play_seeds,
    regret_bound,
    summarize_runs,
)
from .validation import run_validation_suite


def _fmt(value) -> str:
    return format(float(value), ".17g")


def write_rounds_csv(
    path: Path, transcript: GameTranscript, competitor, run_index: int
) -> None:
    """Fixed-schema per-round transcript; expert indices are 1-based."""
    m = transcript.config.n_experts
    header = (
        ["run", "t", "epsilon", "eta", "psi", "V", "D", "i_t", "loss", "cum_loss",
         "competitor_arm", "competitor_loss", "regret"]
        + [f"q_{i}" for i in range(1, m + 1)]
    )
    # "%.17g" renders a float exactly as _fmt does; one template per row
    # formats the head in one call, with no per-column strings
    head_template = "%d,%d" + ",%.17g" * 5 + ",%d,%.17g,%.17g,%d,%.17g,%.17g"
    q_template = ",%.17g" * m + "\n"
    rounds = np.arange(transcript.horizon)
    arms = competitor.experts
    loss = transcript.selected_loss
    competitor_loss = transcript.losses[rounds, arms]
    # running sums are left folds, round by round; + 0.0 turns a -0.0 sum
    # into 0.0, as a fold that starts from 0.0 would
    columns = zip(
        (rounds + 1).tolist(),
        transcript.epsilon.tolist(),
        transcript.eta.tolist(),
        transcript.psi.tolist(),
        transcript.V.tolist(),
        transcript.D.tolist(),
        (transcript.selected + 1).tolist(),
        loss.tolist(),
        (np.cumsum(loss) + 0.0).tolist(),
        (arms + 1).tolist(),
        competitor_loss.tolist(),
        (np.cumsum(loss - competitor_loss) + 0.0).tolist(),
        transcript.q,
    )
    # while eps_t = 1 every q row is the uniform 1/M, so most rows of a
    # wide game repeat the one before; a row is rendered again only when
    # its bytes change (by bytes: -0.0 == 0.0 prints apart, NaN != NaN
    # prints alike)
    last_q, q_text = None, ""
    with path.open("w") as handle:
        handle.write(",".join(header) + "\n")
        for *head, q in columns:
            q_bytes = q.tobytes()
            if q_bytes != last_q:
                last_q, q_text = q_bytes, q_template % tuple(q.tolist())
            handle.write(head_template % (run_index, *head) + q_text)


def _report_json(report: RegretReport, bound: BoundValue) -> dict:
    payload = {
        "seed": report.seed,
        "learner_loss": report.learner_loss,
        "competitor_loss": report.competitor_loss,
        "realized_regret": report.regret,
        "normalized_regret": report.normalized_regret,
        "loss_range": list(report.loss_range),
        "complexity": report.complexity,
        "w_budget": report.w_budget,
        "budget_exceeded": report.budget_exceeded,
        "bound_theorem": bound.theorem,
        "bound_cleaner": bound.cleaner,
    }
    if report.diagnostics is not None:
        payload["diagnostics"] = {
            c.name: {"lhs": c.lhs, "rhs": c.rhs, "slack": c.slack, "passed": c.passed}
            for c in report.diagnostics.checks
        }
    return payload


def _summary_json(summary: BatchSummary, base_seed: int, horizon: int) -> dict:
    return {
        "base_seed": base_seed,
        "horizon": horizon,
        "n_seeds": summary.n_seeds,
        "mean_regret": summary.mean_regret,
        "std_error": summary.std_error,
        "std_error_defined": summary.std_error_defined,
        "confidence_interval": list(summary.confidence_interval),
        "mean_normalized_regret": summary.mean_normalized_regret,
        "normalized_std_error": summary.normalized_std_error,
        "normalized_confidence_interval": list(summary.normalized_confidence_interval),
        "bound_theorem": summary.bound.theorem,
        "bound_cleaner": summary.bound.cleaner,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg.out) if cfg.out else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    transcript, competitor, report = play_and_score(
        cfg.experiment, cfg.seed, with_diagnostics=True
    )
    # the realized complexity with the budget-driven rate and schedule
    bound = regret_bound(transcript.config, report.complexity, transcript.epsilon)
    write_rounds_csv(out / "rounds.csv", transcript, competitor, run_index=0)
    _write_json(out / "report.json", _report_json(report, bound))
    print(
        f"run: seed {cfg.seed}, regret {report.regret:.6g}, "
        f"normalized {report.normalized_regret:.6g}, bound {bound.theorem:.6g}"
    )
    return 0


def _cmd_batch(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    bundle = cfg.experiment
    reports: list[RegretReport] = []
    for transcript, competitor, report in play_seeds(bundle, cfg.runs, cfg.seed):
        if cfg.write_rounds:
            i = report.seed - cfg.seed
            write_rounds_csv(out / f"run_{i:04d}.csv", transcript, competitor, run_index=i)
        # free this game's transcript before the next one is played (an
        # enumerate() or zip() around the seeds would keep it in its tuple)
        del transcript, competitor
        reports.append(report)
    summary = summarize_runs(bundle, reports)
    _write_json(out / "batch.json", _summary_json(summary, cfg.seed, bundle.horizon))
    print(
        f"batch: {summary.n_seeds} seeds, mean regret {summary.mean_regret:.6g} "
        f"(se {summary.std_error:.3g}), bound {summary.bound.theorem:.6g}"
    )
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    if not cfg.sweep_horizons:
        raise ConfigError("sweep", "the sweep subcommand needs a sweep.horizons list")
    out = _out_dir(cfg, args)
    runs = args.runs or cfg.sweep_runs or cfg.runs
    # each horizon's batch.json record; every output below is read off it
    rows = []
    for horizon in cfg.sweep_horizons:
        bundle = dataclasses.replace(cfg.experiment, horizon=horizon)
        summary, _ = monte_carlo(bundle, runs, base_seed=cfg.seed)
        rows.append(_summary_json(summary, cfg.seed, horizon))
        print(
            f"sweep: T {horizon}, mean regret {summary.mean_regret:.6g} "
            f"(se {summary.std_error:.3g})"
        )
    lines = ["T,mean_regret,std_error,ci_low,ci_high,mean_normalized_regret,bound"]
    for row in rows:
        values = [row["mean_regret"], row["std_error"], *row["confidence_interval"]]
        values += [row["mean_normalized_regret"], row["bound_theorem"]]
        lines.append(",".join([str(row["horizon"]), *map(_fmt, values)]))
    (out / "scaling.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "base_seed": cfg.seed,
        "runs_per_horizon": runs,
        "horizons": [row["horizon"] for row in rows],
        "mean_regrets": [row["mean_regret"] for row in rows],
        "bounds": [row["bound_theorem"] for row in rows],
    }
    try:
        slope = fit_scaling(payload["horizons"], payload["mean_regrets"])
        payload["slope"] = slope
        print(f"sweep: fitted log-log slope {slope:.4f}")
    except DegenerateFitError as exc:
        payload["slope"] = None
        payload["slope_error"] = str(exc)
        print(f"sweep: no slope fit ({exc})")
    _write_json(out / "sweep.json", payload)
    return 0


def _cmd_validate(cfg: ExperimentConfig | None, args) -> int:
    # keys were checked at parse time; missing ones take the suite defaults
    options = dict(cfg.validate_options) if cfg is not None else {}
    if args.seed is not None:
        options["seed"] = args.seed
    results = run_validation_suite(**options)
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
        failed += not check.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialmix",
        description="Expert-mixture experiments under partial monitoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("run", True), ("batch", True), ("sweep", True), ("validate", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="experiment config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
        p.add_argument("--runs", type=int, help="seed count (overrides config; batch and sweep)")
        # kept, as 1 only, for scripts that pass it
        p.add_argument(
            "--threads", type=int, default=1,
            help="only 1 is accepted: every command plays in one process",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "validate") and args.runs is not None:
            raise ConfigError("--runs", f"{args.command} takes no seed count")
        if args.threads != 1:
            raise ConfigError(
                "--threads", f"{args.command} plays in one process, got {args.threads}"
            )
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed", f"must be at least 0, got {args.seed}")
        if args.runs is not None and args.runs < 1:
            raise ConfigError("--runs", f"must be at least 1, got {args.runs}")
        cfg = load_config(args.config) if args.config else None
        if args.command == "validate":
            return _cmd_validate(cfg, args)
        assert cfg is not None
        if args.seed is not None:
            cfg.seed = args.seed
        if args.runs is not None:
            cfg.runs = args.runs
        if args.command == "run":
            return _cmd_run(cfg, args)
        if args.command == "batch":
            return _cmd_batch(cfg, args)
        return _cmd_sweep(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
