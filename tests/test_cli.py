import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from partialmix import (
    CompetitorSequence,
    LearnerConfig,
    PiecewiseLosses,
    bandit_feedback,
    fixed_share_kernel,
    run_game,
)
from partialmix.cli import _fmt, main, write_rounds_csv

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, **overrides):
    config = {
        "experts": 3,
        "horizon": 60,
        "kernel": {"type": "fixed_share", "alpha": 0.05},
        "w_budget": 12.0,
        "loss": {
            "kind": "piecewise", "range": [0.0, 1.0],
            "best_arms": [1, 2], "boundaries": [0.5],
        },
        "feedback": {"kind": "bandit"},
        "competitor": {"kind": "best_k_switch", "switches": 1},
        "seed": 11,
        "runs": 4,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestRun:
    def test_writes_csv_and_report(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rounds = (out / "rounds.csv").read_text().splitlines()
        header = rounds[0].split(",")
        assert header[:13] == [
            "run", "t", "epsilon", "eta", "psi", "V", "D", "i_t", "loss",
            "cum_loss", "competitor_arm", "competitor_loss", "regret",
        ]
        assert header[13:] == ["q_1", "q_2", "q_3"]
        assert len(rounds) == 61
        report = json.loads((out / "report.json").read_text())
        assert {"realized_regret", "normalized_regret", "complexity",
                "bound_theorem", "diagnostics"} <= report.keys()
        assert all(v["passed"] for v in report["diagnostics"].values())

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2), "--seed", "99"])
        assert (out1 / "rounds.csv").read_bytes() != (out2 / "rounds.csv").read_bytes()

    def test_equal_losses_zero_regret(self, tmp_path):
        path = write_config(
            tmp_path,
            loss={"kind": "scripted", "range": [0, 1], "values": [[0.5, 0.5, 0.5]] * 60},
            competitor={"kind": "fixed", "expert": 2},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["realized_regret"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("command, artifact", [("run", "report.json"), ("batch", "batch.json")])
    def test_zero_epsilon_reports_an_infinite_bound(self, tmp_path, command, artifact):
        # the bound's M / eps_T term is infinite, so no guarantee applies
        path = write_config(tmp_path, epsilon=0.0, feedback={"kind": "full"})
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / artifact).read_text())
        assert payload["bound_theorem"] == payload["bound_cleaner"] == math.inf

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            feedback={"kind": "constant", "matrix": [[0.6, 0.3, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]]},
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "row 0" in err

    @pytest.mark.parametrize("command", ["run", "batch"])
    @pytest.mark.parametrize(
        "competitor", [{"kind": "fixed", "expert": 1}, {"kind": "best_fixed"}]
    )
    def test_competitor_outside_the_class_map_exits_2(
        self, tmp_path, capsys, monkeypatch, command, competitor
    ):
        # expert 1 has two tagged classes, so no expert path names its class
        def no_round(*args, **kwargs):
            raise AssertionError("a round was played")

        monkeypatch.setattr("partialmix.environment.step", no_round)
        kernel = {
            "type": "custom",
            "classes": [{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "b"}, {"expert": 2}],
            "prior": [0.25, 0.25, 0.5],
            "transitions": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        }
        path = write_config(tmp_path, experts=2, kernel=kernel, competitor=competitor)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert (
            "config error: competitor: expert 1 has 2 kernel classes"
            in capsys.readouterr().err
        )


def reference_rounds_csv(transcript, competitor, run_index):
    """The writer's rows built one ``_fmt`` call per value."""
    m = transcript.config.n_experts
    header = (
        ["run", "t", "epsilon", "eta", "psi", "V", "D", "i_t", "loss", "cum_loss",
         "competitor_arm", "competitor_loss", "regret"]
        + [f"q_{i}" for i in range(1, m + 1)]
    )
    lines = [",".join(header)]
    cum_loss = cum_regret = 0.0
    tr = transcript
    for i, arm in enumerate(competitor.experts):
        competitor_loss = float(tr.losses[i, arm])
        cum_loss += tr.selected_loss[i]
        cum_regret += tr.selected_loss[i] - competitor_loss
        row = [
            str(run_index), str(i + 1), _fmt(tr.epsilon[i]), _fmt(tr.eta[i]),
            _fmt(tr.psi[i]), _fmt(tr.V[i]), _fmt(tr.D[i]), str(tr.selected[i] + 1),
            _fmt(tr.selected_loss[i]), _fmt(cum_loss), str(int(arm) + 1),
            _fmt(competitor_loss), _fmt(cum_regret),
        ] + [_fmt(v) for v in tr.q[i]]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


class TestRoundsCsv:
    def test_matches_per_value_format(self, tmp_path):
        m = 4
        config = LearnerConfig(kernel=fixed_share_kernel(m, 0.1), w_budget=10.0)
        losses = PiecewiseLosses(m, (0.0, 1.0), best_arms=[0, 2], boundaries=[0.5])
        transcript = run_game(config, losses, bandit_feedback(m), 6, seed=3)
        extremes = [
            (None, 0.0, [0.25, 0.25, 0.25, 0.25]),
            (math.nan, -0.0, [-0.0, 1e-300, 1e300, 0.1]),
            (-0.0, 1e300, [5e-324, 1.0 / 3.0, math.nan, math.inf]),
            (1e-300, 1e-300, [-math.inf, 2.5e-310, 0.0, 1 - 1e-16]),
            (1e300, math.inf, [1e300, 1e-300, -0.0, 0.5]),
        ]
        for i, (eta, v, q) in enumerate(extremes):
            # an unset rate is stored as NaN
            transcript.eta[i] = math.nan if eta is None else eta
            transcript.V[i] = v
            transcript.psi[i] = -v
            transcript.q[i] = q
        competitor = CompetitorSequence.from_experts([0, 1, 2, 3, 0, 1], config.kernel)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, transcript, competitor, 7)

        assert path.read_bytes() == reference_rounds_csv(transcript, competitor, 7)
        rows = path.read_text().split("\n")
        assert rows[2].split(",")[3] == "nan"
        assert rows[2].split(",")[13:15] == ["-0", "1e-300"]

    def test_repeated_q_rows(self, tmp_path):
        # W = 2 at M = 3: eps_t = 1, so q_t is exactly 1/3, for t <= 6
        config = LearnerConfig(kernel=fixed_share_kernel(3, 0.1), w_budget=2.0)
        losses = PiecewiseLosses(3, (0.0, 1.0), best_arms=[0, 2], boundaries=[0.5])
        transcript = run_game(config, losses, bandit_feedback(3), 14, seed=3)
        assert np.all(transcript.epsilon[:6] == 1.0) and np.all(transcript.q[:6] == 1 / 3)
        assert np.all(transcript.epsilon[6:] < 1.0)
        q = transcript.q
        assert not np.array_equal(q[6], q[7])
        # an earlier row again, but not the one just before
        q[8] = q[6]
        # equal values, different bytes
        q[9] = [0.0, 0.5, 0.5]
        q[10] = [-0.0, 0.5, 0.5]
        # unequal values, equal bytes
        q[11] = q[12] = [math.nan, 0.5, 0.5]
        competitor = CompetitorSequence.from_experts([0, 1, 2] * 4 + [0, 1], config.kernel)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, transcript, competitor, 2)

        assert path.read_bytes() == reference_rounds_csv(transcript, competitor, 2)
        rows = path.read_text().split("\n")
        assert [row.split(",")[13] for row in rows[10:14]] == ["0", "-0", "nan", "nan"]

    def test_single_expert(self, tmp_path):
        config = LearnerConfig(kernel=fixed_share_kernel(1, 0.0), w_budget=2.0)
        losses = PiecewiseLosses(1, (0.0, 1.0), best_arms=[0], boundaries=[])
        transcript = run_game(config, losses, bandit_feedback(1), 5, seed=4)
        competitor = CompetitorSequence.from_experts([0] * 5, config.kernel)
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, transcript, competitor, 0)

        assert path.read_bytes() == reference_rounds_csv(transcript, competitor, 0)
        assert [row.split(",")[13:] for row in path.read_text().splitlines()] == (
            [["q_1"]] + [["1"]] * 5
        )


class TestOneProcessCommands:
    @pytest.mark.parametrize("command", ["run", "batch", "sweep", "validate"])
    def test_one_process_flags(self, tmp_path, monkeypatch, capsys, command):
        # every command plays in one process; the benchmark passes --threads 1
        from partialmix import cli

        monkeypatch.setattr(cli, "run_validation_suite", lambda **kwargs: [])
        path = write_config(tmp_path, runs=2, sweep={"horizons": [5, 6], "runs": 2})
        argv = [command, "--config", str(path), "--out"]
        assert main(argv + [str(tmp_path / "o"), "--threads", "1"]) == 0
        capsys.readouterr()
        for threads in ["2", "0", "-2"]:
            out = tmp_path / f"o{threads}"
            assert main(argv + [str(out), "--threads", threads]) == 2
            assert (
                f"config error: --threads: {command} plays in one process, got {threads}"
                in capsys.readouterr().err
            )
            assert not out.exists()
        if command in ("run", "validate"):
            assert main(argv + [str(tmp_path / "o"), "--runs", "3"]) == 2
            assert f"config error: --runs: {command} takes no seed count" in capsys.readouterr().err

    def test_cli_imports_no_process_machinery(self):
        # a fresh interpreter, so that no other test's imports count
        script = (
            "import sys, partialmix.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestBatch:
    def test_batch_summary(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["batch", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "batch.json").read_text())
        assert summary["n_seeds"] == 4
        assert summary["std_error_defined"] is True
        low, high = summary["confidence_interval"]
        assert low <= summary["mean_regret"] <= high

    def test_write_rounds_per_run(self, tmp_path):
        path = write_config(tmp_path, write_rounds=True, runs=2)
        out = tmp_path / "out"
        assert main(["batch", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "run_0000.csv").exists() and (out / "run_0001.csv").exists()
        assert (out / "batch.json").exists()
        # the per-run CSVs change nothing in the summary at the same seeds
        (tmp_path / "plain").mkdir()
        plain = write_config(tmp_path / "plain", runs=2)
        assert main(["batch", "--config", str(plain), "--out", str(tmp_path / "o2")]) == 0
        assert (out / "batch.json").read_bytes() == (tmp_path / "o2" / "batch.json").read_bytes()

    def test_rounds_csv_matches_run(self, tmp_path):
        # both commands write through one writer: seed + i of a batch is
        # the run at that seed, up to the run column
        path = write_config(tmp_path, write_rounds=True)
        batch_out, run_out = tmp_path / "batch", tmp_path / "run"
        assert main(["batch", "--config", str(path), "--out", str(batch_out), "--runs", "2"]) == 0
        assert main(["run", "--config", str(path), "--out", str(run_out), "--seed", "12"]) == 0
        batch_rows = (batch_out / "run_0001.csv").read_bytes().split(b"\n")
        run_rows = (run_out / "rounds.csv").read_bytes().split(b"\n")
        assert len(batch_rows) == len(run_rows) == 62
        assert batch_rows[0] == run_rows[0] and batch_rows[-1] == run_rows[-1] == b""
        for batch_row, run_row in zip(batch_rows[1:-1], run_rows[1:-1]):
            assert batch_row.startswith(b"1,") and run_row.startswith(b"0,")
            assert batch_row[2:] == run_row[2:]

    @pytest.mark.filterwarnings("ignore:competitor complexity")
    def test_a_batch_holds_one_game_at_a_time(self, tmp_path):
        # each seed's transcript is freed before the next seed plays, so
        # three seeds peak where one does; a batch that kept the last game
        # while the next one played (an enumerate() around the seeds)
        # would peak near twice as high
        config = json.loads((ROOT / "configs" / "bandit_switching.json").read_text())
        config["horizon"] = 4000
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        def batch(runs):
            out = tmp_path / f"out_{runs}"
            assert main(["batch", "--config", str(path), "--out", str(out), "--runs", runs]) == 0

        batch("1")  # fills the one-time caches before anything is traced
        tracemalloc.start()
        try:
            batch("1")
            _, one = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            batch("3")
            _, three = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert three <= 1.2 * one

    def test_runs_override(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["batch", "--config", str(path), "--out", str(out), "--runs", "2"]) == 0
        assert json.loads((out / "batch.json").read_text())["n_seeds"] == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["batch", "--config", str(path), "--out", str(out), "--threads", threads]) == 2
        assert (
            f"config error: --threads: batch plays in one process, got {threads}"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_ragged_feedback_matrix_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, feedback={"kind": "constant", "matrix": [[1, 0, 0], [1.0]]})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: feedback.matrix[1]: has 1 entries, row 0 has 3" in err

    def test_zero_runs_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["batch", "--config", str(path), "--out", str(tmp_path / "o"), "--runs", "0"]) == 2
        assert "config error: --runs: must be at least 1" in capsys.readouterr().err


class TestSweep:
    def test_scaling_outputs(self, tmp_path):
        path = write_config(
            tmp_path, sweep={"horizons": [32, 48, 64, 96], "runs": 3}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == ["T", "mean_regret", "std_error"]
        assert len(lines) == 5
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["horizons"] == [32, 48, 64, 96]
        assert "slope" in payload

    def test_sweep_requires_block(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_runs_flag_overrides_sweep_runs(self, tmp_path):
        path = write_config(tmp_path, sweep={"horizons": [5, 6], "runs": 3})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--runs", "2"]) == 0
        assert json.loads((out / "sweep.json").read_text())["runs_per_horizon"] == 2

    def test_each_horizon_matches_its_batch(self, tmp_path):
        # a sweep row is the batch of the same config at that horizon
        horizons = [20, 30]
        path = write_config(tmp_path, sweep={"horizons": horizons, "runs": 3})
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
        rows = (tmp_path / "sweep" / "scaling.csv").read_text().splitlines()[1:]
        sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert sweep["horizons"] == horizons
        for i, (horizon, row) in enumerate(zip(horizons, rows, strict=True)):
            (tmp_path / str(horizon)).mkdir()
            single = write_config(tmp_path / str(horizon), horizon=horizon, runs=3)
            out = tmp_path / str(horizon) / "out"
            assert main(["batch", "--config", str(single), "--out", str(out)]) == 0
            summary = json.loads((out / "batch.json").read_text())
            t, *values = row.split(",")
            assert int(t) == summary["horizon"] == horizon
            expected = [
                summary["mean_regret"], summary["std_error"], *summary["confidence_interval"],
                summary["mean_normalized_regret"], summary["bound_theorem"],
            ]
            assert values == [_fmt(v) for v in expected]
            assert sweep["mean_regrets"][i] == summary["mean_regret"]
            assert sweep["bounds"][i] == summary["bound_theorem"]


class TestValidate:
    def test_default_suite_passes(self, tmp_path, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_options_from_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            validate={"oracle_instances": 5, "lemma_configs": 3,
                      "lemma_horizon": 100, "affine_horizon": 100},
        )
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.count("PASS") == 3

    def test_bad_option_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, validate={"seed": "abc"})
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error: validate.seed: " in capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [False, True])
    def test_seed_flag_overrides(self, tmp_path, monkeypatch, with_config):
        from partialmix import cli

        calls = []
        monkeypatch.setattr(
            cli, "run_validation_suite", lambda **kwargs: calls.append(kwargs) or []
        )
        argv = ["validate", "--seed", "9"]
        if with_config:
            path = write_config(tmp_path, validate={"seed": 3, "lemma_configs": 2})
            argv += ["--config", str(path)]
        assert main(argv) == 0
        expected = {"seed": 9, "lemma_configs": 2} if with_config else {"seed": 9}
        assert calls == [expected]

    def test_bad_flags_exit_2(self, capsys):
        assert main(["validate", "--runs", "3"]) == 2
        assert "config error: --runs: " in capsys.readouterr().err
        assert main(["validate", "--seed", "-1"]) == 2
        assert "config error: --seed: must be at least 0" in capsys.readouterr().err

    def test_failures_exit_1(self, monkeypatch, capsys):
        from partialmix import cli
        from partialmix.validation import CheckResult

        monkeypatch.setattr(
            cli, "run_validation_suite",
            lambda **kwargs: [CheckResult("broken", False, "synthetic failure")],
        )
        assert main(["validate"]) == 1
        assert "FAIL broken" in capsys.readouterr().out
