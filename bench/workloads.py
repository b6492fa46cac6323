"""The three benchmark workloads, built from the benchmark seed.

Each workload is a list of ``partialmix`` CLI commands that one worker
process runs in order, the configs it loads during set-up, the number of
learner rounds (calls to ``learner.step``) the commands play, and the
operations they count as attempted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
SHIPPED_SWITCHING = Path("configs") / "bandit_switching.json"

# switching-batch plays this many seeds of the shipped config per repeat
SWITCHING_GAMES = 2
# stands for the repeat's artifact directory in a command's arguments
ARTIFACTS = "{artifacts}"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    configs: tuple[str, ...]
    rounds: int
    # operations per repeat: commands, plus games played or validation
    # checks printed
    ops: int
    # files whose SHA-256 must repeat exactly, relative to the repeat dir
    artifacts: tuple[str, ...]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _dump(payload: dict, path: Path) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def build(name: str, root: Path, seed: int, work: Path) -> Workload:
    """Write the workload's configs under ``work`` and return its commands."""
    out = ARTIFACTS
    if name == "switching-batch":
        config = str(root / SHIPPED_SWITCHING)
        raw = _load(root / SHIPPED_SWITCHING)
        return Workload(
            name=name,
            commands=((
                "batch", "--config", config, "--out", out,
                "--seed", str(seed * SWITCHING_GAMES), "--runs", str(SWITCHING_GAMES),
                "--threads", "1",
            ),),
            configs=(config,),
            rounds=SWITCHING_GAMES * raw["horizon"],
            ops=1 + SWITCHING_GAMES,
            artifacts=("batch.json",),
        )
    if name == "wide-switching-run":
        raw = _load(CONFIG_DIR / "wide_switching.json")
        raw["seed"] = seed
        config = _dump(raw, work / "wide_switching.json")
        return Workload(
            name=name,
            commands=(("run", "--config", config, "--out", out, "--threads", "1"),),
            configs=(config,),
            rounds=raw["horizon"],
            ops=2,
            artifacts=("rounds.csv", "report.json"),
        )
    if name == "validate":
        # the oracle enumeration keeps its fixed seed: its cost per seed is
        # heavy-tailed (see README), so only the sweep takes the bench seed
        oracle = _load(CONFIG_DIR / "validate_oracle.json")
        sweep = _load(CONFIG_DIR / "validate_sweep.json")
        sweep["validate"]["seed"] = seed
        configs = (
            _dump(oracle, work / "validate_oracle.json"),
            _dump(sweep, work / "validate_sweep.json"),
        )
        rounds = 0
        for raw in (oracle, sweep):
            options = raw["validate"]
            # the affine suite plays two transforms, each on base and
            # transformed losses
            rounds += options["lemma_configs"] * options["lemma_horizon"]
            rounds += 4 * options["affine_horizon"]
        return Workload(
            name=name,
            commands=tuple(
                ("validate", "--config", c, "--out", out, "--threads", "1")
                for c in configs
            ),
            configs=configs,
            rounds=rounds,
            ops=2 * (1 + 3),
            artifacts=("validate_oracle.out", "validate_sweep.out"),
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("switching-batch", "wide-switching-run", "validate")
