import json
import math
from pathlib import Path

import numpy as np
import pytest

from partialmix.config import ConfigError, load_config, parse_config
from partialmix.environment import IIDLosses, PiecewiseLosses, ScriptedLosses


def base_config(**overrides):
    config = {
        "experts": 2,
        "horizon": 5,
        "kernel": {"type": "fixed"},
        "w_budget": 1.0,
        "loss": {"kind": "iid", "range": [0.0, 1.0], "arms": [
            {"dist": "uniform", "low": 0.0, "high": 0.5},
            {"dist": "bernoulli", "p": 0.4},
        ]},
        "feedback": {"kind": "bandit"},
        "competitor": {"kind": "best_fixed"},
        "seed": 3,
        "runs": 2,
    }
    config.update(overrides)
    return config


class TestParseConfig:
    def test_minimal_roundtrip(self):
        cfg = parse_config(base_config())
        assert cfg.experiment.learner_config.n_experts == 2 and cfg.experiment.horizon == 5
        assert isinstance(cfg.experiment.loss_process, IIDLosses)
        assert cfg.experiment.learner_config.gamma == 1.0
        assert cfg.seed == 3 and cfg.runs == 2

    def test_fixed_share_kernel(self):
        cfg = parse_config(base_config(kernel={"type": "fixed_share", "alpha": 0.1}))
        assert cfg.experiment.learner_config.kernel.matrix[0, 0] == pytest.approx(0.9)

    def test_custom_kernel_one_based_experts(self):
        kernel_spec = {
            "type": "custom",
            "classes": [{"expert": 1}, {"expert": 2, "tag": "x"}],
            "prior": [0.7, 0.3],
            "transitions": [[0.6, 0.4], [0.5, 0.5]],
        }
        cfg = parse_config(base_config(kernel=kernel_spec))
        np.testing.assert_array_equal(cfg.experiment.learner_config.kernel.experts, [0, 1])

    def test_scripted_losses_and_explicit_competitor(self):
        values = [[0.1, 0.9]] * 5
        cfg = parse_config(
            base_config(
                loss={"kind": "scripted", "range": [0, 1], "values": values},
                competitor={"kind": "explicit", "sequence": [1, 1, 2, 2, 1]},
            )
        )
        assert isinstance(cfg.experiment.loss_process, ScriptedLosses)
        assert cfg.experiment.competitor.sequence == (0, 0, 1, 1, 0)

    def test_piecewise_losses(self):
        cfg = parse_config(
            base_config(
                loss={
                    "kind": "piecewise", "range": [0, 1],
                    "best_arms": [1, 2], "boundaries": [0.5], "gap": 0.3,
                }
            )
        )
        assert isinstance(cfg.experiment.loss_process, PiecewiseLosses)
        np.testing.assert_array_equal(cfg.experiment.loss_process.best_arm_path(4), [0, 0, 1, 1])

    def test_scripted_feedback(self):
        matrices = [[[1.0, 0.0], [0.0, 1.0]]] * 5
        cfg = parse_config(base_config(feedback={"kind": "scripted", "matrices": matrices}))
        cfg.experiment.feedback_process.check_horizon(5)

    def test_epsilon_schedule_override(self):
        cfg = parse_config(base_config(epsilon=[1.0, 0.8, 0.6, 0.5, 0.5]))
        assert cfg.experiment.learner_config.epsilon_at(3) == 0.6

    def test_sweep_block(self):
        cfg = parse_config(base_config(sweep={"horizons": [4, 5], "runs": 3}))
        assert cfg.sweep_horizons == (4, 5) and cfg.sweep_runs == 3


class TestDiagnostics:
    def test_row_sum_error_names_the_row(self):
        bad = base_config(
            feedback={"kind": "constant", "matrix": [[0.6, 0.3], [0.3, 0.7]]}
        )
        with pytest.raises(ConfigError, match=r"feedback\.matrix.*row 0"):
            parse_config(bad)

    def test_missing_field_names_path(self):
        bad = base_config()
        del bad["kernel"]
        with pytest.raises(ConfigError, match="kernel"):
            parse_config(bad)

    def test_expert_index_range_checked(self):
        bad = base_config(competitor={"kind": "fixed", "expert": 3})
        with pytest.raises(ConfigError, match=r"competitor\.expert"):
            parse_config(bad)

    def test_horizon_longer_than_script(self):
        bad = base_config(
            loss={"kind": "scripted", "range": [0, 1], "values": [[0.1, 0.2]] * 3}
        )
        with pytest.raises(ConfigError, match="loss"):
            parse_config(bad)

    def test_explicit_sequence_length_checked(self):
        bad = base_config(competitor={"kind": "explicit", "sequence": [1, 2]})
        with pytest.raises(ConfigError, match=r"competitor\.sequence"):
            parse_config(bad)

    def test_missing_budget_and_gamma(self):
        bad = base_config()
        del bad["w_budget"]
        with pytest.raises(ConfigError, match="gamma or w_budget"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"w_budget": -1}, "w_budget: must be positive"),
            ({"gamma": 0}, "gamma: must be positive"),
            ({"fixed_eta": -0.5}, "fixed_eta: must be positive"),
            ({"epsilon": 1.5}, "epsilon: must lie in [0, 1]"),
            ({"epsilon": []}, "epsilon: schedule is empty"),
            ({"epsilon": [0.5, -0.1]}, "epsilon[1]: must lie in [0, 1]"),
            ({"epsilon": [0.5, 0.4, 0.6]}, "epsilon[2]: schedule must be non-increasing"),
            ({"w_budget": None}, "w_budget: either gamma or w_budget is required"),
            ({"w_budget": None, "gamma": 1.0},
             "w_budget: the default epsilon schedule needs w_budget"),
        ],
    )
    def test_learner_errors_name_their_key(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse_config(base_config(**overrides))
        assert str(info.value) == message

    def test_loss_csv_loading(self, tmp_path):
        csv_path = tmp_path / "losses.csv"
        csv_path.write_text("0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n0.9,1.0\n")
        cfg = parse_config(
            base_config(loss={"kind": "scripted", "range": [0, 1], "csv": str(csv_path)})
        )
        values = cfg.experiment.loss_process.generate(5, np.random.default_rng(0))
        assert values[0, 1] == 0.2

    def test_ragged_loss_csv_rejected(self, tmp_path):
        csv_path = tmp_path / "losses.csv"
        csv_path.write_text("0.1,0.2\n0.3\n")
        loss = {"kind": "scripted", "range": [0, 1], "csv": str(csv_path)}
        with pytest.raises(ConfigError) as info:
            parse_config(base_config(loss=loss))
        assert str(info.value) == "loss.csv[1]: has 1 entries, row 0 has 2"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"w_budget": math.nan}, "w_budget: expected a finite number, got nan"),
            ({"gamma": math.inf}, "gamma: expected a finite number, got inf"),
            ({"w_budget": 10**400}, "w_budget: expected a finite number"),
            (
                {"kernel": {"type": "fixed_share", "alpha": math.nan}},
                r"kernel\.alpha: expected a finite number",
            ),
            (
                {"kernel": {"type": "custom", "classes": [{"expert": 1}, {"expert": 2}],
                            "prior": [math.nan, 1.0], "transitions": [[1, 0], [0, 1]]}},
                r"kernel\.prior\[0\]: expected a finite number",
            ),
            (
                {"loss": {"kind": "scripted", "range": [0, math.inf], "values": [[0.1, 0.2]] * 5}},
                r"loss\.range\[1\]: expected a finite number",
            ),
            (
                {"feedback": {"kind": "constant", "matrix": [[1.0, math.nan], [0.0, 1.0]]}},
                r"feedback\.matrix\[0\]\[1\]: expected a finite number",
            ),
            ({"epsilon": math.nan}, "epsilon: expected a finite number, got nan"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, overrides, message):
        # json.dumps writes the NaN and Infinity literals that json.load accepts
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(**overrides)))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"epsilon": [1.0, 0.8, 0.6, 0.5]}, "epsilon: schedule has 4 entries, horizon is 8"),
            (
                {"loss": {"kind": "scripted", "range": [0, 1], "values": [[0.1, 0.2]] * 4}},
                "loss: script covers 4 rounds, horizon 8 asked",
            ),
            (
                {"feedback": {"kind": "scripted", "matrices": [[[1.0, 0.0], [0.0, 1.0]]] * 4}},
                "feedback: feedback script covers 4 rounds, horizon 8 asked",
            ),
            (
                {"competitor": {"kind": "explicit", "sequence": [1, 2, 1, 2]}},
                "competitor.sequence: has 4 rounds, horizon is 8",
            ),
        ],
    )
    def test_sweep_horizon_beyond_an_input(self, overrides, message):
        # each input covers the 4-round horizon but not the sweep's 8 rounds
        raw = base_config(horizon=4, sweep={"horizons": [4, 8]}, **overrides)
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.path == "sweep.horizons[1]"
        assert str(info.value) == f"sweep.horizons[1]: {message}"

    def test_repeated_sweep_horizon(self):
        # a repeated horizon plays the same batch again and counts as a
        # further point of the scaling fit
        raw = base_config(sweep={"horizons": [5, 6, 5, 7]})
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert info.value.path == "sweep.horizons[2]"
        assert str(info.value) == "sweep.horizons[2]: horizon 5 is already listed"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"kernel": {"type": "custom", "classes": [{"expert": 1}, {"expert": 2}],
                            "prior": [0.5, 0.5], "transitions": [[1.0, 0.0], [1.0]]}},
                "kernel.transitions[1]: has 1 entries, row 0 has 2",
            ),
            (
                {"loss": {"kind": "scripted", "range": [0, 1],
                          "values": [[0.1, 0.2]] * 4 + [[0.1, 0.2, 0.3]]}},
                "loss.values[4]: has 3 entries, row 0 has 2",
            ),
            (
                {"feedback": {"kind": "constant", "matrix": [[1.0, 0.0], [1.0]]}},
                "feedback.matrix[1]: has 1 entries, row 0 has 2",
            ),
            (
                {"feedback": {"kind": "scripted",
                              "matrices": [[[1.0, 0.0], [0.0, 1.0]]] * 4 + [[[1.0, 0.0], []]]}},
                "feedback.matrices[4][1]: has 0 entries, row 0 has 2",
            ),
        ],
    )
    def test_ragged_matrix_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse_config(base_config(**overrides))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seeds": 4}, "seeds: unknown config option"),
            ({"runz": 2}, "runz: unknown config option"),
            (
                {"kernel": {"type": "fixed_share", "alpah": 0.1}},
                "kernel.alpah: unknown 'fixed_share' kernel option",
            ),
            (
                {"kernel": {"type": "fixed", "alpha": 0.1}},
                "kernel.alpha: unknown 'fixed' kernel option",
            ),
            (
                {"kernel": {"type": "custom", "classes": [{"expert": 1}, {"expert": 2, "tga": "b"}],
                            "prior": [0.5, 0.5], "transitions": [[1, 0], [0, 1]]}},
                "kernel.classes[1].tga: unknown kernel class option",
            ),
            (
                {"loss": {"kind": "iid", "range": [0, 1], "arms": [
                    {"dist": "uniform", "low": 0.0, "hgih": 0.5},
                    {"dist": "bernoulli", "p": 0.4},
                ]}},
                "loss.arms[0].hgih: unknown 'uniform' arm option",
            ),
            (
                {"loss": {"kind": "iid", "range": [0, 1], "arms": [
                    {"dist": "uniform", "low": 0.0, "high": 0.5},
                    {"dist": "bernoulli", "q": 0.4},
                ]}},
                "loss.arms[1].q: unknown 'bernoulli' arm option",
            ),
            (
                {"loss": {"kind": "scripted", "range": [0, 1], "values": [[0.1, 0.2]] * 5,
                          "csv": "losses.csv"}},
                "loss.values: unknown 'scripted' loss option",
            ),
            (
                {"loss": {"kind": "piecewise", "range": [0, 1], "best_arms": [1],
                          "boundaries": [], "gapp": 0.1}},
                "loss.gapp: unknown 'piecewise' loss option",
            ),
            (
                {"feedback": {"kind": "bandit", "mode": "full"}},
                "feedback.mode: unknown 'bandit' feedback option",
            ),
            (
                {"feedback": {"kind": "full", "mode": "full"}},
                "feedback.mode: unknown 'full' feedback option",
            ),
            (
                {"feedback": {"kind": "constant", "matrices": [[[1, 0], [0, 1]]]}},
                "feedback.matrices: unknown 'constant' feedback option",
            ),
            (
                {"feedback": {"kind": "scripted", "matrix": [[1, 0], [0, 1]]}},
                "feedback.matrix: unknown 'scripted' feedback option",
            ),
            (
                {"competitor": {"kind": "best_fixed", "switches": 2}},
                "competitor.switches: unknown 'best_fixed' competitor option",
            ),
            (
                {"competitor": {"kind": "fixed", "expert": 1, "sequence": [1]}},
                "competitor.sequence: unknown 'fixed' competitor option",
            ),
            (
                {"competitor": {"kind": "best_k_switch", "switches": 1, "expert": 1}},
                "competitor.expert: unknown 'best_k_switch' competitor option",
            ),
            (
                {"competitor": {"kind": "explicit", "sequence": [1] * 5, "switches": 0}},
                "competitor.switches: unknown 'explicit' competitor option",
            ),
            ({"sweep": {"horizons": [5], "rnus": 2}}, "sweep.rnus: unknown sweep option"),
        ],
    )
    def test_unknown_keys_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse_config(base_config(**overrides))
        assert str(info.value) == message

    def test_boolean_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="epsilon: expected a number, got True"):
            parse_config(base_config(epsilon=True))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experts": 2,\n  "horizon": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


def tagged_kernel(classes):
    n = len(classes)
    return {"type": "custom", "classes": classes, "prior": [1 / n] * n,
            "transitions": [[1 / n] * n] * n}


class TestKernelClasses:
    def test_tags_tell_apart_classes_of_one_expert(self):
        classes = [{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "b"},
                   {"expert": 2, "tag": "a"}, {"expert": 2}, {"expert": 3}]
        cfg = parse_config(base_config(
            experts=3,
            kernel=tagged_kernel(classes),
            loss={"kind": "scripted", "range": [0, 1], "values": [[0.1] * 3] * 5},
            competitor={"kind": "explicit", "sequence": [3] * 5},
        ))
        np.testing.assert_array_equal(cfg.experiment.learner_config.kernel.experts, [0, 0, 1, 1, 2])

    @pytest.mark.parametrize(
        "classes, path",
        [
            ([{"expert": 1}, {"expert": 2}, {"expert": 1}], "kernel.classes[2]"),
            ([{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "a"}], "kernel.classes[1]"),
        ],
    )
    def test_repeated_expert_and_tag_rejected(self, classes, path):
        with pytest.raises(ConfigError, match="repeats expert 1 with tag") as info:
            parse_config(base_config(kernel=tagged_kernel(classes)))
        assert info.value.path == path

    def test_non_string_tag_rejected(self):
        with pytest.raises(ConfigError, match=r"kernel\.classes\[0\]\.tag: must be a string"):
            parse_config(base_config(kernel=tagged_kernel([{"expert": 1, "tag": 3}])))

    @pytest.mark.parametrize(
        "classes, competitor, message",
        [
            # expert 1 has two classes
            ([{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "b"}, {"expert": 2}],
             {"kind": "fixed", "expert": 1}, "expert 1 has 2 kernel classes"),
            ([{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "b"}, {"expert": 2}],
             {"kind": "explicit", "sequence": [2, 2, 1, 2, 2]}, "expert 1 has 2 kernel classes"),
            ([{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "b"}, {"expert": 2}],
             {"kind": "best_fixed"}, "expert 1 has 2 kernel classes"),
            # expert 2 has none
            ([{"expert": 1}], {"kind": "best_k_switch", "switches": 1},
             "expert 2 has 0 kernel classes"),
            ([{"expert": 1}], {"kind": "explicit", "sequence": [1, 1, 2, 1, 1]},
             "expert 2 has 0 kernel classes"),
        ],
    )
    def test_competitor_needs_one_class_per_named_expert(self, classes, competitor, message):
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(base_config(kernel=tagged_kernel(classes), competitor=competitor))
        assert info.value.path == "competitor"

    @pytest.mark.parametrize(
        "classes, competitor",
        [
            ([{"expert": 1, "tag": "a"}, {"expert": 1, "tag": "b"}, {"expert": 2}],
             {"kind": "fixed", "expert": 2}),
            ([{"expert": 1}], {"kind": "explicit", "sequence": [1] * 5}),
        ],
    )
    def test_competitor_on_mapped_experts_accepted(self, classes, competitor):
        parse_config(base_config(kernel=tagged_kernel(classes), competitor=competitor))


class TestValidateBlock:
    def test_options_checked_and_kept(self):
        options = {"seed": 5, "oracle_instances": 0, "lemma_configs": 2,
                   "lemma_horizon": 4, "affine_horizon": 1}
        assert parse_config(base_config(validate=options)).validate_options == options
        assert parse_config(base_config()).validate_options == {}

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"seed": "abc"}, r"validate\.seed: expected an integer, got 'abc'"),
            ({"seed": -1}, r"validate\.seed: must be at least 0"),
            ({"oracle_instances": 2.5}, r"validate\.oracle_instances: expected an integer"),
            ({"lemma_configs": -1}, r"validate\.lemma_configs: must be at least 0"),
            ({"lemma_horizon": 3}, r"validate\.lemma_horizon: must be at least 4"),
            ({"affine_horizon": 0}, r"validate\.affine_horizon: must be at least 1"),
            ({"oracle_instance": 3}, r"validate\.oracle_instance: unknown validate option"),
        ],
    )
    def test_bad_options_name_their_path(self, options, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(base_config(validate=options))

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="validate: expected an object"):
            parse_config(base_config(validate=[1]))

    @pytest.mark.parametrize("name", ["validate_oracle.json", "validate_sweep.json"])
    def test_benchmark_configs_parse(self, name):
        path = Path(__file__).resolve().parents[1] / "bench" / "configs" / name
        raw = json.loads(path.read_text())
        assert load_config(path).validate_options == raw["validate"]
