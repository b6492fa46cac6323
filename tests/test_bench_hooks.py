"""The benchmark's tracer wraps partialmix functions by module and name.

A rename or a call that no longer goes through a traced name would leave
``bench/run.py --trace 1`` reporting zeros, so these tests load
``bench/tracer.py`` (without changing it) and check its hooks.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from partialmix import cli, environment
from partialmix.classnet import fixed_share_kernel
from partialmix.config import load_config
from partialmix.evaluation import ExperimentBundle, monte_carlo, play_and_score
from partialmix.learner import LearnerConfig

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
WORKER_PATH = ROOT / "bench" / "worker.py"
# the per-seed fields that bench/checks.py reads from the worker's capture
CHECKED_FIELDS = ("seed", "regret", "learner_loss", "competitor_loss", "complexity", "n_switches")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # leave no bytecode cache behind in bench/
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_function_resolves(tracer_module):
    for module_name, fn_name in tracer_module.FUNCTIONS:
        module = importlib.import_module(f"partialmix.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_loss_processes_define_generate(tracer_module):
    wrapped = {
        cls.__name__
        for cls in tracer_module._subclasses(environment.LossProcess)
        if "generate" in vars(cls)
    }
    assert {"ScriptedLosses", "IIDLosses", "PiecewiseLosses"} <= wrapped


def test_traced_game_reaches_every_round_layer(tracer_module):
    horizon, m = 12, 3
    config = LearnerConfig(kernel=fixed_share_kernel(m, 0.1), w_budget=5.0)
    losses = environment.PiecewiseLosses(m, (0.0, 1.0), [0, 1], [0.5])
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        environment.run_game(config, losses, environment.bandit_feedback(m), horizon, seed=1)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["environment.run_game_calls"] == 1
    assert layers["learner.step_calls"] == horizon
    assert layers["classnet.advance_calls"] == horizon
    assert layers["feedback.revealed_losses"] == horizon
    for name in (
        "learner.prepare_round", "learner.select", "learner.finish_round",
        "learner.estimate", "learner.update_rate", "feedback.observation_probabilities",
        "feedback.sample_indicators", "classnet.expert_marginals", "environment.generate",
    ):
        assert layers[f"{name}_s"] > 0.0, name


def test_traced_batch_counts_one_step_per_round(tracer_module):
    # the benchmark counts a batch's rounds as learner.step calls; a batch
    # of seeds must therefore play every round through learner.step
    runs, horizon, m = 2, 15, 3
    bundle = ExperimentBundle(
        learner_config=LearnerConfig(kernel=fixed_share_kernel(m, 0.1), w_budget=8.0),
        loss_process=environment.PiecewiseLosses(m, (0.0, 1.0), [0, 1], [0.5]),
        feedback_process=environment.bandit_feedback(m),
        horizon=horizon,
        competitor=environment.CompetitorSpec("best_k_switch", switches=1),
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        summary, results = monte_carlo(bundle, runs, base_seed=4)
    finally:
        tracer.uninstall()
    assert len(results) == runs
    layers = tracer.layer_metrics()
    assert layers["environment.run_game_calls"] == runs
    assert layers["learner.step_calls"] == runs * horizon
    assert layers["classnet.advance_calls"] == runs * horizon
    # bandit feedback reveals exactly the selected loss each round
    assert layers["feedback.revealed_losses"] == runs * horizon
    assert layers["environment.best_competitor_s"] > 0.0


def test_traced_cli_batch_counts_one_step_per_round(tracer_module, tmp_path):
    # the benchmark's switching-batch workload counts its rounds through
    # the CLI's batch command, which plays its seeds through play_seeds
    runs, horizon = 2, 20
    config = {
        "experts": 3,
        "horizon": horizon,
        "kernel": {"type": "fixed_share", "alpha": 0.05},
        "w_budget": 12.0,
        "loss": {"kind": "piecewise", "range": [0.0, 1.0], "best_arms": [1, 2], "boundaries": [0.5]},
        "feedback": {"kind": "bandit"},
        "competitor": {"kind": "best_k_switch", "switches": 1},
        "seed": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["batch", "--config", str(config_path), "--out", str(tmp_path / "out")]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main([*argv, "--runs", str(runs)]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["environment.run_game_calls"] == runs
    assert layers["learner.step_calls"] == runs * horizon


@pytest.mark.parametrize("write_rounds", [False, True])
def test_worker_captures_every_batch_seed(tmp_path, write_rounds):
    # the worker captures per-seed results where the CLI passes them to
    # summarize_runs; a batch that bypasses that global fails the
    # benchmark's correctness check
    config = {
        "experts": 3,
        "horizon": 20,
        "kernel": {"type": "fixed_share", "alpha": 0.05},
        "w_budget": 12.0,
        "loss": {
            "kind": "piecewise", "range": [0.0, 1.0], "best_arms": [1, 2], "boundaries": [0.5],
        },
        "feedback": {"kind": "bandit"},
        "competitor": {"kind": "best_k_switch", "switches": 1},
        "seed": 11,
        "write_rounds": write_rounds,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    spec = {
        "root": str(ROOT),
        "configs": [str(config_path)],
        "commands": [
            ["batch", "--config", str(config_path), "--out", str(tmp_path / "out"), "--runs", "2"]
        ],
        "artifacts": str(tmp_path / "artifacts"),
        "trace": False,
        "spans": str(tmp_path / "spans.tsv"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(WORKER_PATH), str(spec_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [output["exit_code"] for output in result["outputs"]] == [0]
    assert (tmp_path / "out" / "run_0001.csv").exists() == write_rounds
    captured = result["batch_results"]
    assert [r["seed"] for r in captured] == [11, 12]
    experiment = load_config(config_path).experiment
    for r in captured:
        expected = play_and_score(experiment, r["seed"])[2]
        for field in CHECKED_FIELDS:
            assert r[field] == getattr(expected, field), field
