"""partialmix benchmark: run one workload for a fixed time and report its
end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload switching-batch --seed 1 --seconds 30 --trace 0

Workloads: switching-batch, wide-switching-run, validate (see
bench/README.md). Each repeat starts a fresh worker interpreter that
imports partialmix from ``src/``, loads the workload's configs and runs its
CLI commands in one process; repeats continue until ``--seconds`` have
passed. With ``--trace 0`` the metrics are medians over untraced repeats.
With ``--trace 1`` the first repeat is untraced and the rest are traced;
the metrics are the per-layer medians over the traced repeats, and the
tracing overhead is printed. Every repeat's artifacts must have the same
SHA-256, and the first repeat's outputs are checked against computations
made apart from the program. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Artifacts, worker specs and span files go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, COUNTED  # noqa: E402

MIN_REPEATS = 3
WORKER_TIMEOUT_S = 150
# one process on one core: keep BLAS from starting threads of its own
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rounds_per_s": "rounds/s", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_NAMES}
    units.update({f"{name}_calls": "count" for name in COUNTED})
    units["feedback.revealed_losses"] = "count"
    units["cli.rounds_csv_bytes"] = "bytes"
    return units


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_repeat(workload: workloads.Workload, work: Path, index: int, traced: bool) -> dict:
    rep = work / f"rep-{index:02d}"
    rep.mkdir()
    spec = {
        "root": str(ROOT),
        "configs": list(workload.configs),
        "commands": [
            [str(rep / "artifacts") if arg == workloads.ARTIFACTS else arg for arg in argv]
            for argv in workload.commands
        ],
        "artifacts": str(rep / "artifacts"),
        "trace": traced,
        "spans": str(rep / "spans.tsv"),
    }
    (rep / "spec.json").write_text(json.dumps(spec, indent=2))
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(rep / "spec.json")],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for repeat {index} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    result["traced"] = traced
    result["dir"] = rep
    result["digests"] = {
        name: sha256(rep / "artifacts" / name) if (rep / "artifacts" / name).exists() else None
        for name in workload.artifacts
    }
    return result


def count_failed(workload: workloads.Workload, result: dict) -> int:
    failed = 0
    for output in result["outputs"]:
        if output["exit_code"] != 0:
            failed += 1
        if workload.name == "validate":
            passes = sum(line.startswith("PASS ") for line in output["stdout"].splitlines())
            failed += 3 - min(passes, 3)
    if workload.name == "switching-batch":
        failed += workloads.SWITCHING_GAMES - len(result["batch_results"])
    elif workload.name == "wide-switching-run":
        failed += result["outputs"][0]["exit_code"] != 0
    return failed


def check_outputs(workload: workloads.Workload, seed: int, result: dict) -> list[str]:
    artifacts = result["dir"] / "artifacts"
    if workload.name == "switching-batch":
        return checks.switching_batch(
            Path(workload.configs[0]), seed * workloads.SWITCHING_GAMES,
            workloads.SWITCHING_GAMES, artifacts / "batch.json", result["batch_results"],
        )
    if workload.name == "wide-switching-run":
        return checks.wide_run(Path(workload.configs[0]), artifacts)
    errors = []
    for config, output in zip(workload.configs, result["outputs"]):
        errors += checks.validate_output(Path(config), output["exit_code"], output["stdout"])
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for needed in (ROOT / "src" / "partialmix" / "__init__.py", ROOT / workloads.SHIPPED_SWITCHING):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a partialmix checkout",
                  file=sys.stderr)
            return 2

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(args.workload, ROOT, args.seed, work)

    repeats: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(repeats) > 0
        repeats.append(run_repeat(workload, work, len(repeats), traced))
        if len(repeats) >= 2:
            # keep the artifacts of the first repeat and one span file on disk
            shutil.rmtree(repeats[-1]["dir"] / "artifacts")
            if repeats[-1]["traced"] and repeats[-2]["traced"]:
                (repeats[-1]["dir"] / "spans.tsv").unlink()
        if time.monotonic() >= deadline and len(repeats) >= MIN_REPEATS:
            break

    attempted = workload.ops * len(repeats)
    failed = sum(count_failed(workload, r) for r in repeats)
    try:
        errors = check_outputs(workload, args.seed, repeats[0])
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"cannot check the outputs: {exc!r}"]
    for r in repeats[1:]:
        if r["digests"] != repeats[0]["digests"] or r["batch_results"] != repeats[0]["batch_results"]:
            errors.append(f"repeat {r['dir'].name} (traced: {r['traced']}) differs from the first")
    for name, digest in repeats[0]["digests"].items():
        print(f"sha256 {name} {digest}")

    untraced = [r for r in repeats if not r["traced"]]
    traced_reps = [r for r in repeats if r["traced"]]
    if args.trace:
        for r in traced_reps:
            if r["layers"]["learner.step_calls"] != workload.rounds:
                errors.append(f"traced repeat played {r['layers']['learner.step_calls']} rounds, "
                              f"expected {workload.rounds}")
        base = untraced[0]["wall_s"]
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        print(f"tracing overhead: traced wall {traced_wall:.4f} s, untraced {base:.4f} s, "
              f"{100.0 * (traced_wall / base - 1.0):+.1f}%")
        units = layer_units()
        values = {}
        for name, unit in units.items():
            seen = [r["layers"][name] for r in traced_reps]
            if unit == "s":
                values[name] = statistics.median(seen)
            else:
                values[name] = seen[0]
                if len(set(seen)) != 1:
                    errors.append(f"{name} differs between traced repeats: {seen}")
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "rounds_per_s": statistics.median(workload.rounds / r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in untraced),
        }
    for error in errors:
        print(f"check failed: {error}")
    print(f"{args.workload}: seed {args.seed}, {len(repeats)} repeats "
          f"({len(traced_reps)} traced), {attempted} operations, {failed} failed")
    print("  wall_s/cpu_s per repeat (* traced): " + ", ".join(
        f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}{'*' if r['traced'] else ''}" for r in repeats))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
