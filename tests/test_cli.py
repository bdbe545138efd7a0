"""Config parsing, the run/sweep/report commands, and artifact emission."""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmentor import config as config_mod
from fedmentor import dp
from fedmentor.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    execute_run,
    main,
    metrics_csv_lines,
    run_command,
    sweep_command,
    write_summary_json,
)
from fedmentor.config import (
    BudgetConfig,
    ConfigError,
    DataConfig,
    DomainOverride,
    ModelConfig,
    PrivacyStrategy,
    RunConfig,
    build_experiment,
    config_from_dict,
    load_config,
)
from fedmentor.data import DEFAULT_DOMAIN_SIZES
from fedmentor.dp import NoiseCalibration
from fedmentor.federation import RoundError, run_training
from fedmentor.lora import serialize
from fedmentor.metrics import METRIC_NAMES
from reference import run_plain_fedavg


def write_config(tmp_path, text: str):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_empty_file_yields_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg == RunConfig()
        assert cfg.budgets.entries == {"IRF": 0.5, "Dreaddit": 2.0, "MultiWD": 1.5}
        assert cfg.strategy.kind == "domain_aware"

    def test_calibration_echo_keys(self):
        assert RunConfig().to_dict()["calibration"] == {
            "early": 0.01,
            "middle": 0.008,
            "late": 0.005,
            "multiplier_a": 1.2,
            "multiplier_b": 0.8,
            "gate_factor": 0.8,
            "nominal_delta": 1e-5,
            "clip_norm": None,
        }

    def test_round_trip_through_echo(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                "seed: 9\nrounds: 3\nstrategy: {kind: uniform, eps_glob: 1.0}\n"
                "data:\n  scale: 0.05\n  overrides:\n    IRF: {rotation_angle: 0.4}\n",
            )
        )
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys.*bogus"):
            load_config(write_config(tmp_path, "bogus: 1\n"))

    def test_unknown_nested_key_names_section(self, tmp_path):
        with pytest.raises(ConfigError, match="model: unknown keys"):
            load_config(write_config(tmp_path, "model: {depth: 3}\n"))

    def test_type_errors_name_field(self, tmp_path):
        with pytest.raises(ConfigError, match="rounds"):
            load_config(write_config(tmp_path, "rounds: many\n"))
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(write_config(tmp_path, "learning_rate: fast\n"))

    def test_strategy_validation_surfaces_as_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="strategy"):
            load_config(write_config(tmp_path, "strategy: {kind: uniform}\n"))

    def test_domain_aware_requires_budgets_for_all_domains(self, tmp_path):
        text = "budgets:\n  entries: {Dreaddit: 2.0}\n"
        with pytest.raises(ConfigError, match="missing budgets.*IRF"):
            load_config(write_config(tmp_path, text))

    def test_unknown_threshold_metric(self, tmp_path):
        with pytest.raises(ConfigError, match="thresholds.bert"):
            load_config(write_config(tmp_path, "thresholds: {bert: 0.5}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(write_config(tmp_path, "a: [unclosed\n"))

    @pytest.mark.parametrize(
        "literal, value", [("1e-5", 1e-5), ("1E5", 1e5), ("-2.5e-3", -2.5e-3), ("1.0e5", 1e5)]
    )
    def test_exponent_floats_load_as_floats(self, tmp_path, literal, value):
        cfg = load_config(write_config(tmp_path, f"thresholds: {{accuracy: {literal}}}\n"))
        assert cfg.thresholds["accuracy"] == value

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        message = "learning_rate: expected float, got '1e-5'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, "learning_rate: '1e-5'\n"))

    def test_yaml_1_1_booleans_load_as_strings(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "strategy: {kind: off}\n"))
        assert cfg.strategy.kind == "off"
        text = "strategy: {kind: uniform, eps_glob: 1.0}\ndata: {domains: [IRF, no]}\n"
        assert load_config(write_config(tmp_path, text)).data.domains == ("IRF", "no")

    @pytest.mark.parametrize("literal", ["true", "True", "TRUE", "false"])
    def test_yaml_1_2_booleans_are_still_rejected(self, tmp_path, literal):
        message = f"rounds: expected int, got {literal.lower() == 'true'}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, f"rounds: {literal}\n"))

    def test_nominal_delta_in_exponent_notation(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "calibration: {nominal_delta: 1e-5}\n"))
        assert cfg.calibration.nominal_delta == 1e-5

    @pytest.mark.parametrize("bad", ["-0.5", "0.0", "1.0", "2.0", "1e5"])
    def test_nominal_delta_outside_unit_interval_rejected(self, tmp_path, bad):
        path = write_config(tmp_path, f"calibration: {{nominal_delta: {bad}}}\n")
        message = "calibration: nominal_delta must be in (0, 1)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_rank_must_fit_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model.rank"):
            load_config(write_config(tmp_path, "model: {rank: 99}\n"))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([1], "config: expected a mapping"),
            ({"bogus": 1}, "config: unknown keys"),
            ({"model": {"depth": 3}}, "model: unknown keys"),
            ({"data": {"size": 1}}, "data: unknown keys"),
            ({"data": {"overrides": {"IRF": {"size": 1}}}}, "data.overrides.IRF: unknown keys"),
            ({"strategy": {"eps": 1.0}}, "strategy: unknown keys"),
            ({"budgets": {"rate": 0.1}}, "budgets: unknown keys"),
            ({"calibration": {"mid": 0.1}}, "calibration: unknown keys"),
            ({"rounds": "many"}, "rounds: expected int"),
            ({"rounds": None}, "rounds: expected int"),
            ({"seed": True}, "seed: expected int"),
            ({"batch_size": 3.5}, "batch_size: expected int"),
            ({"model": {"rank": "4"}}, "model.rank: expected int"),
            ({"data": {"overrides": {"IRF": {"n_train": "x"}}}},
             "data.overrides.IRF.n_train: expected int"),
            ({"learning_rate": "fast"}, "learning_rate: expected float"),
            ({"data": {"scale": True}}, "data.scale: expected float"),
            ({"budgets": {"entries": {"IRF": "x"}}}, "budgets.entries.IRF: expected float"),
            ({"calibration": {"clip_norm": "big"}}, "calibration.clip_norm: expected float"),
            ({"thresholds": {"accuracy": "high"}}, "thresholds.accuracy: expected float"),
            ({"strategy": {"kind": 1}}, "strategy.kind: expected str"),
            ({"model": 3}, "model: expected a mapping"),
            ({"data": [1]}, "data: expected a mapping"),
            ({"data": {"overrides": {"IRF": 2}}}, "data.overrides.IRF: expected a mapping"),
            ({"budgets": {"entries": [1]}}, "budgets.entries: expected a mapping"),
            ({"thresholds": 0.5}, "thresholds: expected a mapping"),
            ({"strategy": {"kind": "loud"}}, "strategy: unknown strategy 'loud'"),
            ({"strategy": {"kind": "uniform"}}, "strategy: uniform strategy requires eps_glob"),
            ({"data": {"domains": []}}, "data.domains: expected a"),
            ({"data": {"domains": "IRF"}}, "data.domains: expected a"),
            ({"data": {"domains": ["IRF", "IRF"]}}, "data.domains: duplicate names"),
            ({"thresholds": {"bert": 0.5}}, "thresholds.bert: unknown metric"),
            ({"seed": -1}, "seed: must be a 64-bit unsigned integer"),
            ({"seed": 2**64}, "seed: must be a 64-bit unsigned integer"),
            ({"model": {"rank": 0}}, "model.rank: must be >= 1"),
            ({"model": {"rank": 99}}, "model.rank: 99 exceeds"),
            ({"model": {"n_layers": 0}}, "model.n_layers: must be >= 1"),
            ({"data": {"scale": 0.0}}, "data.scale: must be > 0"),
            ({"budgets": {"decay_rate": 1.5}}, "budgets: decay_rate must be in [0, 1)"),
            ({"budgets": {"decay_rate": -0.1}}, "budgets: decay_rate must be in [0, 1)"),
            ({"calibration": {"scale_multiplier": 0.5}}, "calibration: unknown keys"),
            ({"calibration": {"late": -0.5}}, "calibration: late must be finite and >= 0"),
            ({"calibration": {"gate_factor": 1.0}}, "calibration: gate_factor must be in (0, 1)"),
            ({"calibration": {"early": float("nan")}}, "calibration.early: must be finite"),
            ({"calibration": {"clip_norm": float("nan")}}, "calibration.clip_norm: must be finite"),
            ({"budgets": {"entries": {"IRF": float("inf")}}},
             "budgets.entries.IRF: must be finite"),
            ({"budgets": {"floor": float("nan")}}, "budgets.floor: must be finite"),
            ({"thresholds": {"accuracy": float("nan")}}, "thresholds.accuracy: must be finite"),
            ({"learning_rate": float("inf")}, "learning_rate: must be finite"),
            ({"strategy": {"kind": "uniform", "eps_glob": float("nan")}},
             "strategy.eps_glob: must be finite"),
            ({"strategy": {"kind": "static_noise", "sigma": float("inf")}},
             "strategy.sigma: must be finite"),
            ({"data": {"scale": float("nan")}}, "data.scale: must be finite"),
            ({"data": {"label_noise": float("nan")}}, "data.label_noise: must be finite"),
            ({"data": {"label_noise": 0.7}}, "data.label_noise: must be in [0, 0.5), got 0.7"),
            ({"data": {"overrides": {"IRF": {"n_train": 0}}}},
             "data.overrides.IRF: n_train must be >= 1, got 0"),
            ({"data": {"overrides": {"IRF": {"n_val": 0}}}},
             "data.overrides.IRF: n_val must be >= 1, got 0"),
            ({"data": {"overrides": {"IRF": {"label_noise": 0.7}}}},
             "data.overrides.IRF: label_noise must be in [0, 0.5), got 0.7"),
            ({"learning_rate": int("9" * 400)},
             "learning_rate: must be finite, got an integer too large for a float"),
            ({"strategy": {"kind": "off"}, "calibration": {"clip_norm": 0.05}},
             "calibration.clip_norm: strategy 'off' clips nothing"),
            ({"strategy": {"kind": "static_noise", "sigma": 0.008},
              "calibration": {"clip_norm": 0.05}},
             "calibration.clip_norm: strategy 'static_noise' clips nothing"),
            ({"strategy": {"kind": "static_noise", "sigma": 0.008},
              "budgets": {"decay_rate": 0.2}},
             "budgets: strategy 'static_noise' replaces this section"),
            ({"strategy": {"kind": "static_noise", "sigma": 0.008},
              "calibration": {"early": 0.5}},
             "calibration: strategy 'static_noise' replaces this section"),
            ({"strategy": {"kind": "static_noise", "sigma": 0.008},
              "thresholds": {"accuracy": 1.1}},
             "thresholds: strategy 'static_noise' replaces this section"),
            ({"strategy": {"kind": "off"}, "budgets": {"entries": {"IRF": 0.1}}},
             "budgets: strategy 'off' replaces this section"),
            ({"strategy": {"kind": "off"}, "calibration": {"nominal_delta": 1e-6}},
             "calibration: strategy 'off' replaces this section"),
            ({"strategy": {"kind": "off"}, "thresholds": {"neg_eval_loss": -1.0}},
             "thresholds: strategy 'off' replaces this section"),
            ({"strategy": {"kind": "utility_threshold", "tau": -1.0},
              "thresholds": {"accuracy": 1.1}},
             "thresholds: strategy 'utility_threshold' replaces this section"),
            ({"strategy": {"kind": "uniform", "eps_glob": 1.0},
              "budgets": {"entries": {"IRF": 0.5}}},
             "budgets.entries: strategy 'uniform' replaces this section"),
            ({"model": {"input_dim": 1, "hidden_dim": 4, "rank": 1}},
             "model.input_dim: stock domain 'IRF' is rotated by 0.15, which needs "
             "model.input_dim >= 2, got 1"),
            ({"model": {"input_dim": 1, "rank": 1},
              "data": {"domains": ["x", "MultiWD"], "overrides": {"x": {"rotation_angle": 0.0}}}},
             "model.input_dim: stock domain 'MultiWD' is rotated by 0.3"),
            ({"model": {"input_dim": 1, "rank": 1},
              "data": {"domains": ["x", "MultiWD"], "overrides": {"x": {"rotation_angle": 0.5}}}},
             "data.overrides.x.rotation_angle: 0.5 needs model.input_dim >= 2, got 1"),
            ({"model": {"input_dim": 1, "rank": 1},
              "data": {"domains": ["IRF"], "overrides": {"IRF": {"rotation_angle": -0.2}}}},
             "data.overrides.IRF.rotation_angle: -0.2 needs model.input_dim >= 2"),
            ({"strategy": {"kind": "domain_aware", "sigma": 0.5}},
             "strategy: strategy 'domain_aware' does not read sigma"),
            ({"strategy": {"kind": "off", "eps_glob": 1.0}},
             "strategy: strategy 'off' does not read eps_glob"),
            ({"strategy": {"kind": "uniform", "eps_glob": 1.0, "tau": 0.5}},
             "strategy: strategy 'uniform' does not read tau"),
            ({"strategy": {"kind": "static_noise", "sigma": 0.008, "eps_glob": 1.0}},
             "strategy: strategy 'static_noise' does not read eps_glob"),
            ({"strategy": {"kind": "utility_threshold", "tau": 0.5, "sigma": 0.0}},
             "strategy: strategy 'utility_threshold' does not read sigma"),
            ({"strategy": {"kind": "uniform", "eps_glob": "1"}},
             "strategy.eps_glob: expected float"),
        ],
    )
    def test_malformed_config_names_field(self, raw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, fields",
        [
            ({"rounds": 0}, {"rounds": 0}),
            ({"rounds": 0, "batch_size": 0}, {"rounds": 0, "batch_size": 0}),
            ({"seed": -1}, {"seed": -1}),
            ({"model": {"rank": 99}}, {"model": ModelConfig(rank=99)}),
            ({"data": {"domains": ["IRF", "IRF"]}}, {"data": DataConfig(domains=("IRF", "IRF"))}),
            ({"thresholds": {"bert": 0.5}}, {"thresholds": {"bert": 0.5}}),
            ({"rounds": 1, "strategy": {"kind": "off"}, "thresholds": {"accuracy": 0.99},
              "calibration": {"clip_norm": 0.05}},
             {"rounds": 1, "strategy": PrivacyStrategy("off"), "thresholds": {"accuracy": 0.99},
              "calibration": NoiseCalibration(clip_norm=0.05)}),
            ({"strategy": {"kind": "uniform", "eps_glob": 1.0},
              "budgets": {"entries": {"IRF": 0.5}}},
             {"strategy": PrivacyStrategy("uniform", eps_glob=1.0),
              "budgets": BudgetConfig(entries={"IRF": 0.5})}),
            ({"seed": 3.0}, {"seed": 3.0}),
            ({"seed": np.int64(3)}, {"seed": np.int64(3)}),
            ({"rounds": 1.5}, {"rounds": 1.5}),
            ({"rounds": True}, {"rounds": True}),
            ({"batch_size": 2.5}, {"batch_size": 2.5}),
            ({"model": {"hidden_dim": 16.5}}, {"model": ModelConfig(hidden_dim=16.5)}),
            ({"data": {"overrides": {"IRF": {"n_train": 2.5}}}},
             {"data": DataConfig(overrides={"IRF": DomainOverride(n_train=2.5)})}),
            ({"learning_rate": math.inf}, {"learning_rate": math.inf}),
            ({"learning_rate": math.nan}, {"learning_rate": math.nan}),
            ({"learning_rate": "0.1"}, {"learning_rate": "0.1"}),
            ({"data": {"scale": math.inf}}, {"data": DataConfig(scale=math.inf)}),
            ({"data": {"scale": math.nan}}, {"data": DataConfig(scale=math.nan)}),
            ({"data": {"label_noise": "0.1"}}, {"data": DataConfig(label_noise="0.1")}),
            ({"data": {"domains": "IRF"}}, {"data": DataConfig(domains="IRF")}),
            # Built inside the test, so that an error raised while building them fails the
            # test rather than its collection.
            ({"data": {"overrides": {"IRF": {"n_train": "5"}}}},
             lambda: {"data": DataConfig(overrides={"IRF": DomainOverride(n_train="5")})}),
            ({"data": {"overrides": {"IRF": {"label_noise": math.inf}}}},
             lambda: {"data": DataConfig(overrides={"IRF": DomainOverride(label_noise=math.inf)})}),
        ],
    )
    def test_code_and_replace_reach_the_dict_check(self, raw, fields):
        if callable(fields):
            fields = fields()
        with pytest.raises(ConfigError) as from_dict:
            config_from_dict(raw)
        with pytest.raises(ConfigError) as built:
            RunConfig(**fields)
        with pytest.raises(ConfigError) as replaced:
            replace(config_from_dict({}), **fields)
        assert str(built.value) == str(replaced.value) == str(from_dict.value)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"data": DataConfig(label_noise=math.nan)},
             "data.label_noise: must be finite, got nan"),
            ({"thresholds": {"accuracy": 0.5, "neg_eval_loss": math.nan}},
             "thresholds.neg_eval_loss: must be finite, got nan"),
            ({"thresholds": {"accuracy": math.nan}}, "thresholds.accuracy: must be finite, got nan"),
            ({"strategy": PrivacyStrategy("utility_threshold", tau=math.nan)},
             "strategy.tau: must be finite, got nan"),
            ({"data": DataConfig(overrides={"IRF": DomainOverride(rotation_angle=math.nan)})},
             "data.overrides.IRF.rotation_angle: must be finite, got nan"),
        ],
    )
    def test_nan_set_in_code_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**fields)
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(RunConfig(), **fields)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_echo_round_trips_random_valid_configs(self, data):
        cfg = data.draw(_run_configs())
        assert config_from_dict(cfg.to_dict()) == cfg
        # An int given for a float is stored as the float YAML would load.
        assert json.dumps(cfg.to_dict()) == json.dumps(config_from_dict(cfg.to_dict()).to_dict())


def _floats(lo: float, hi: float):
    """Finite floats in [lo, hi], and sometimes an int in that range given in their place."""
    floats = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    if math.ceil(lo) > math.floor(hi):
        return floats
    return floats | st.integers(math.ceil(lo), math.floor(hi))


@st.composite
def _run_configs(draw) -> RunConfig:
    """Random valid RunConfigs: each checks its rules as it is built, as every RunConfig does."""
    rank = draw(st.integers(1, 4))
    input_dim = draw(st.integers(rank, 16))
    names = st.text(min_size=1, max_size=6)
    angles = _floats(-3.0, 3.0)
    if input_dim < 2:  # only unrotated custom domains
        names = names.filter(lambda name: name not in DEFAULT_DOMAIN_SIZES)
        angles = st.just(0.0)
    domains = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    optional = lambda values: st.none() | values  # noqa: E731
    overrides = draw(st.dictionaries(st.sampled_from(domains), st.builds(
        DomainOverride,
        n_train=optional(st.integers(1, 100)),
        n_val=optional(st.integers(1, 20)),
        rotation_angle=optional(angles),
        label_noise=optional(st.floats(0.0, 0.5, exclude_max=True)),
    )))
    strategy = draw(st.one_of(
        st.builds(PrivacyStrategy, kind=st.sampled_from(["domain_aware", "off"])),
        st.builds(PrivacyStrategy, kind=st.just("uniform"), eps_glob=_floats(0.01, 5.0)),
        st.builds(PrivacyStrategy, kind=st.just("static_noise"), sigma=_floats(0.0, 1.0)),
        st.builds(PrivacyStrategy, kind=st.just("utility_threshold"), tau=_floats(-1.0, 1.0)),
    ))
    budgets = BudgetConfig(
        entries={d: draw(_floats(0.01, 5.0)) for d in domains},
        decay_rate=draw(_floats(0.0, 0.99)),
        floor=draw(_floats(0.001, 1.0)),
        decay_mode=draw(st.sampled_from(["multiplicative", "linear"])),
    )
    calibration = NoiseCalibration(
        early=draw(_floats(0.0, 1.0)),
        middle=draw(_floats(0.0, 1.0)),
        late=draw(_floats(0.0, 1.0)),
        multiplier_a=draw(_floats(0.0, 2.0)),
        multiplier_b=draw(_floats(0.0, 2.0)),
        gate_factor=draw(_floats(0.01, 0.99)),
        nominal_delta=draw(st.floats(0.0, 1e-3, exclude_min=True)),
        clip_norm=draw(optional(_floats(0.01, 10.0))),
    )
    thresholds = draw(st.dictionaries(st.sampled_from(METRIC_NAMES), _floats(-2.0, 2.0)))
    # A section the strategy replaces keeps its default, as setting it is an error.
    if strategy.kind == "uniform":
        budgets = replace(budgets, entries=BudgetConfig().entries)
    if strategy.kind in ("utility_threshold", "static_noise", "off"):
        thresholds = RunConfig().thresholds
    if strategy.kind in ("static_noise", "off"):
        budgets, calibration = BudgetConfig(), NoiseCalibration()
    return RunConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        rounds=draw(st.integers(1, 50)),
        local_epochs=draw(st.integers(0, 5)),
        learning_rate=draw(_floats(0.0, 2.0)),
        batch_size=draw(st.integers(1, 64)),
        model=ModelConfig(
            n_layers=draw(st.integers(1, 5)),
            input_dim=input_dim,
            hidden_dim=draw(st.integers(rank, 16)),
            rank=rank,
        ),
        data=DataConfig(
            scale=draw(_floats(0.001, 2.0)),
            label_noise=draw(st.floats(0.0, 0.5, exclude_max=True)),
            domains=tuple(domains),
            overrides=overrides,
        ),
        strategy=strategy,
        budgets=budgets,
        calibration=calibration,
        thresholds=thresholds,
        output_dir=draw(st.text(max_size=10)),
    )


# Non-default budgets, calibration and thresholds sections.
_SECTIONS = {
    "budgets": {"entries": {"a": 0.7, "b": 1.3}, "decay_rate": 0.2},
    "calibration": {"early": 0.02, "gate_factor": 0.5},
    "thresholds": {"accuracy": 0.6},
}


class TestBuildExperiment:
    def test_client_ids_follow_sorted_domains(self):
        exp = build_experiment(RunConfig())
        assert [(c.id, c.domain) for c in exp.clients] == [
            (0, "Dreaddit"), (1, "IRF"), (2, "MultiWD"),
        ]

    def test_domain_order_in_config_is_irrelevant(self):
        a = build_experiment(config_from_dict({"data": {"domains": ["IRF", "Dreaddit", "MultiWD"]}}))
        b = build_experiment(config_from_dict({"data": {"domains": ["MultiWD", "IRF", "Dreaddit"]}}))
        for ca, cb in zip(a.clients, b.clients):
            assert ca.id == cb.id and ca.domain == cb.domain
        assert serialize(a.server.global_adapters) == serialize(b.server.global_adapters)

    def test_uniform_strategy_budgets(self):
        cfg = config_from_dict({"strategy": {"kind": "uniform", "eps_glob": 1.0}})
        exp = build_experiment(cfg)
        assert all(exp.server.budgets[d] == 1.0 for d in cfg.data.domains)

    def test_uniform_schedule_keeps_the_config_decay_fields(self):
        cfg = config_from_dict({
            "data": {"domains": ["IRF", "Dreaddit"]},
            "strategy": {"kind": "uniform", "eps_glob": 0.7},
            "budgets": {"decay_rate": 0.3, "floor": 0.2, "decay_mode": "linear"},
        })
        server = build_experiment(cfg).server
        assert server.schedule == BudgetConfig(
            entries={"IRF": 0.7, "Dreaddit": 0.7}, decay_rate=0.3, floor=0.2, decay_mode="linear"
        )
        assert server.budgets == {"IRF": 0.7, "Dreaddit": 0.7}

    def test_config_budgets_are_the_server_schedule(self):
        assert config_mod.BudgetConfig is dp.BudgetConfig
        cfg = config_from_dict({"budgets": {"floor": 0.3, "decay_mode": "linear"}})
        server = build_experiment(cfg).server
        assert server.schedule == cfg.budgets
        assert server.budgets == cfg.budgets.entries

    def test_utility_threshold_strategy_sets_all_thresholds(self):
        cfg = config_from_dict({"strategy": {"kind": "utility_threshold", "tau": 0.0}})
        exp = build_experiment(cfg)
        assert exp.server.thresholds == {"accuracy": 0.0, "neg_eval_loss": 0.0}

    @pytest.mark.parametrize(
        "strategy, sections, schedule, calibration, thresholds",
        [
            ({"kind": "domain_aware"}, _SECTIONS, None, None, None),
            ({"kind": "uniform", "eps_glob": 0.9},
             {**_SECTIONS, "budgets": {"decay_rate": 0.2}},
             BudgetConfig({"a": 0.9, "b": 0.9}, decay_rate=0.2), None, None),
            ({"kind": "utility_threshold", "tau": 0.3},
             {k: v for k, v in _SECTIONS.items() if k != "thresholds"},
             None, None, {"accuracy": 0.3, "neg_eval_loss": 0.3}),
            ({"kind": "static_noise", "sigma": 0.01}, {},
             BudgetConfig({"a": 1.0, "b": 1.0}, decay_rate=0.0),
             NoiseCalibration(0.01, 0.01, 0.01, multiplier_a=1.0, multiplier_b=1.0), {}),
            ({"kind": "off"}, {},
             BudgetConfig({"a": 1.0, "b": 1.0}, decay_rate=0.0),
             NoiseCalibration(0.0, 0.0, 0.0, multiplier_a=1.0, multiplier_b=1.0), {}),
        ],
        ids=["domain_aware", "uniform", "utility_threshold", "static_noise", "off"],
    )
    def test_strategy_becomes_the_server_noise_state(
        self, strategy, sections, schedule, calibration, thresholds
    ):
        """Each strategy's schedule, calibration and thresholds; None keeps the config's.

        ``sections`` sets only what the strategy reads: the rest is an error.
        """
        cfg = config_from_dict({
            "data": {"domains": ["a", "b"], "scale": 0.02}, "strategy": strategy, **sections,
        })
        server = build_experiment(cfg).server
        assert server.schedule == (cfg.budgets if schedule is None else schedule)
        assert server.calibration == (cfg.calibration if calibration is None else calibration)
        assert server.thresholds == (cfg.thresholds if thresholds is None else thresholds)
        assert server.budgets == server.schedule.entries
        assert server.scale_multiplier == 1.0

    def test_single_client_config(self):
        cfg = config_from_dict({"data": {"domains": ["Dreaddit"]}})
        exp = build_experiment(cfg)
        assert len(exp.clients) == 1
        assert exp.clients[0].domain == "Dreaddit"

    def test_one_input_dim_builds_unrotated_custom_domains(self):
        cfg = config_from_dict({
            "model": {"input_dim": 1, "hidden_dim": 4, "rank": 1},
            "data": {"domains": ["x", "y"], "scale": 0.02,
                     "overrides": {"x": {"rotation_angle": 0.0}}},
            "strategy": {"kind": "uniform", "eps_glob": 1.0},
        })
        exp = build_experiment(cfg)
        assert [c.data.input_dim for c in exp.clients] == [1, 1]

    @pytest.mark.parametrize("data", [
        {"domains": ["Dreaddit", "extra"]},
        {"domains": ["x", "IRF"], "overrides": {"IRF": {"rotation_angle": 0.0}}},
    ])
    def test_one_input_dim_runs_unrotated_stock_domains(self, data, tmp_path):
        cfg = config_from_dict({
            "rounds": 1,
            "model": {"input_dim": 1, "hidden_dim": 4, "rank": 1},
            "data": {**data, "scale": 0.02},
            "strategy": {"kind": "uniform", "eps_glob": 1.0},
        })
        assert execute_run(cfg, tmp_path)["rounds"] == 1

    def test_set_up_runs_on_one_blas_thread(self, blas_threads, monkeypatch):
        get, outside = blas_threads
        seen = []
        real_make_domain = config_mod.make_domain

        def observing(*args, **kwargs):
            seen.append(get())
            return real_make_domain(*args, **kwargs)

        monkeypatch.setattr(config_mod, "make_domain", observing)
        build_experiment(config_from_dict({"data": {"scale": 0.02}}))
        assert seen == [1, 1, 1]
        assert get() == outside

    def test_blas_threads_restored_when_set_up_fails(self, blas_threads, monkeypatch):
        get, outside = blas_threads
        seen = []

        def failing(*args, **kwargs):
            seen.append(get())
            raise ValueError("injected")

        monkeypatch.setattr(config_mod, "make_domain", failing)
        with pytest.raises(ValueError, match="injected"):
            build_experiment(config_from_dict({"data": {"scale": 0.02}}))
        assert seen == [1]
        assert get() == outside


class TestRunCommand:
    def test_artifacts_written(self, tmp_path):
        cfg_path = write_config(tmp_path, "rounds: 2\ndata: {scale: 0.02}\n")
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "adapters.bin").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["rounds_completed"] == 2
        adapters_sha256 = hashlib.sha256((run_dir / "adapters.bin").read_bytes()).hexdigest()
        assert summary["final_adapters_sha256"] == adapters_sha256
        assert "error" not in summary

    def test_unencodable_summary_leaves_no_file(self, tmp_path):
        path = tmp_path / "summary.json"
        with pytest.raises(TypeError, match="int64"):
            write_summary_json(path, {"config": {"seed": np.int64(3)}})
        assert not path.exists()

    def test_metrics_has_one_row_per_round(self, tmp_path):
        cfg_path = write_config(tmp_path, "rounds: 3\ndata: {scale: 0.02}\n")
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rounds

    def test_reruns_never_overwrite(self, tmp_path):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        d1 = run_command(cfg_path, out=str(tmp_path / "out"))
        d2 = run_command(cfg_path, out=str(tmp_path / "out"))
        assert d1 != d2
        assert d1.exists() and d2.exists()

    def test_a_run_directory_name_taken_by_another_process_is_skipped(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        real_mkdir, taken = Path.mkdir, []

        def racing_mkdir(path, *args, **kwargs):
            # Another process makes the first candidate just before this one does.
            if path.name.startswith("run-seed") and not taken:
                taken.append(path)
                real_mkdir(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        assert run_dir == taken[0].with_name(f"{taken[0].name}-2")
        assert (run_dir / "summary.json").exists()

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, "rounds: 2\nseed: 5\ndata: {scale: 0.02}\n")
        d1 = run_command(cfg_path, out=str(tmp_path / "o1"))
        d2 = run_command(cfg_path, out=str(tmp_path / "o2"))
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()
        assert (d1 / "adapters.bin").read_bytes() == (d2 / "adapters.bin").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_off_strategy_reproduces_reference_path(self, tmp_path):
        cfg = config_from_dict(
            {"rounds": 3, "strategy": {"kind": "off"}, "data": {"scale": 0.02}}
        )
        exp = build_experiment(cfg)
        server, records = run_training(exp.server, exp.clients, cfg.rounds)
        ref_adapters, ref_records = run_plain_fedavg(
            exp.server, list(exp.clients), cfg.rounds, budgets_echo=exp.server.budgets,
        )
        assert serialize(server.global_adapters) == serialize(ref_adapters)
        assert metrics_csv_lines(records) == metrics_csv_lines(ref_records)

    def test_uniform_budget_appears_in_metrics(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "rounds: 1\ndata: {scale: 0.02}\nstrategy: {kind: uniform, eps_glob: 1.0}\n",
        )
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        budgets = {
            h.removeprefix("budget_"): float(v)
            for h, v in zip(header, row)
            if h.startswith("budget_")
        }
        assert budgets == {"Dreaddit": 0.9, "IRF": 0.9, "MultiWD": 0.9}  # 1.0 after one decay

    def test_static_noise_strategy_runs(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "rounds: 2\ndata: {scale: 0.02}\nstrategy: {kind: static_noise, sigma: 0.008}\n",
        )
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3


    @pytest.mark.parametrize(
        "strategy", ["{kind: 'off'}", "{kind: static_noise, sigma: 0.008}"], ids=["off", "static"]
    )
    def test_unadapted_strategies_write_the_eps_their_noise_divides_by(self, tmp_path, strategy):
        cfg_path = write_config(
            tmp_path,
            f"rounds: 2\ndata: {{domains: [a, b], scale: 0.02}}\nstrategy: {strategy}\n",
        )
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        header, *rows = (run_dir / "metrics.csv").read_text().strip().splitlines()
        columns = header.split(",")
        budget_columns = [c for c in columns if c.startswith("budget_")]
        assert budget_columns == ["budget_a", "budget_b"]
        for row in rows:
            values = dict(zip(columns, row.split(",")))
            assert [values[c] for c in budget_columns] == ["1.0", "1.0"]


class TestSweepCommand:
    def test_three_values_three_rows(self, tmp_path):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        sweep_dir = sweep_command(cfg_path, "IRF", [0.1, 0.5, 1.0], out=str(tmp_path / "out"))
        lines = (sweep_dir / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one per eps
        assert (sweep_dir / "eps-0.1" / "adapters.bin").exists()

    def test_sweep_csv_bytes_are_the_header_then_one_row_per_eps(self, tmp_path):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        sweep_dir = sweep_command(cfg_path, "IRF", [0.5, 2.0], out=str(tmp_path / "out"))
        blob = (sweep_dir / "sweep.csv").read_bytes()
        header = b"domain,eps,final_accuracy,gate_rounds,scale_multiplier,total_comm_bytes,run_dir\r\n"
        assert blob.startswith(header)
        rows = blob[len(header):].split(b"\r\n")
        assert rows.pop() == b""  # every row, the last too, ends in \r\n
        assert len(rows) == 2
        for row, (eps, name) in zip(rows, [("0.5", "eps-0.5"), ("2.0", "eps-2")]):
            fields = row.decode().split(",")
            assert fields[:2] == ["IRF", eps] and fields[-1] == name
            summary = json.loads((sweep_dir / name / "summary.json").read_text())
            assert fields[2] == repr(summary["final_utilities"]["accuracy"])
            assert int(fields[5]) == summary["total_comm_bytes"]

    def test_single_value_sweep_equals_plain_run(self, tmp_path):
        seed_cfg = "rounds: 2\nseed: 3\ndata: {scale: 0.02}\n"
        cfg_path = write_config(tmp_path, seed_cfg)
        sweep_dir = sweep_command(cfg_path, "IRF", [0.5], out=str(tmp_path / "sweep"))
        run_dir = run_command(cfg_path, out=str(tmp_path / "plain"))
        assert (sweep_dir / "eps-0.5" / "adapters.bin").read_bytes() == (
            run_dir / "adapters.bin"
        ).read_bytes()

    def test_failed_run_keeps_the_rows_of_completed_runs(self, tmp_path, capsys):
        # At eps 1e-10 IRF's noise scale overflows to inf; at 1e300 every round completes.
        cfg_path = write_config(
            tmp_path,
            "rounds: 2\ndata: {scale: 0.02}\ncalibration: {early: 1.0e300}\n"
            "budgets: {entries: {Dreaddit: 1.0e300, IRF: 0.5, MultiWD: 1.0e300}}\n",
        )
        with pytest.raises(RoundError, match="privatize"):
            sweep_command(cfg_path, "IRF", [1e300, 1e-10], out=str(tmp_path / "failed"))
        (sweep_csv,) = (tmp_path / "failed").glob("run-seed0-*/sweep.csv")
        assert f"partial artifacts in {sweep_csv.parent / 'eps-1e-10'}" in capsys.readouterr().err
        sweep_dir = sweep_command(cfg_path, "IRF", [1e300], out=str(tmp_path / "ok"))
        assert sweep_csv.read_bytes() == (sweep_dir / "sweep.csv").read_bytes()

    def test_empty_values_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, "")
        with pytest.raises(ConfigError, match="at least one value"):
            sweep_command(cfg_path, "IRF", [], out=str(tmp_path / "out"))

    def test_unknown_domain_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, "")
        with pytest.raises(ConfigError, match="no client"):
            sweep_command(cfg_path, "Nope", [0.5], out=str(tmp_path / "out"))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ("data: {scale: 0.02, domains: [Dreaddit]}", "domain 'IRF' has no client"),
            ("strategy: {kind: uniform, eps_glob: 1.0}", "strategy 'uniform' does not read"),
            ("strategy: {kind: static_noise, sigma: 0.02}", "strategy 'static_noise' does not"),
            ("strategy: {kind: 'off'}", "strategy 'off' does not read"),
        ],
    )
    def test_unsweepable_config_rejected_before_any_run(self, tmp_path, capsys, settings, message):
        cfg_path = write_config(tmp_path, f"rounds: 1\n{settings}\n")
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(cfg_path), "--domain", "IRF", "--eps", "0.1", "5.0",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_utility_threshold_sweep_reads_the_budget(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "rounds: 1\ndata: {scale: 0.02}\nstrategy: {kind: utility_threshold, tau: -1.0}\n",
        )
        sweep_dir = sweep_command(cfg_path, "IRF", [0.1, 5.0], out=str(tmp_path / "out"))
        assert (sweep_dir / "eps-0.1" / "adapters.bin").read_bytes() != (
            sweep_dir / "eps-5" / "adapters.bin"
        ).read_bytes()

    @pytest.mark.parametrize(
        "eps, message",
        [(["1.0", "-2"], "must be > 0"), (["1", "1.0"], "eps-1"), (["0.5", "inf"], "finite")],
    )
    def test_bad_eps_list_rejected_before_any_run(self, tmp_path, capsys, eps, message):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(cfg_path), "--domain", "IRF", "--eps", *eps,
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestReportCommand:
    def test_report_prints_rounds_and_totals(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: 8\ndata: {scale: 0.02}\n")
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rounds: 8" in out
        # budget trace final value follows the 0.9^R analytic form
        assert f"{2.0 * 0.9**8:.4f}" in out
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        total = sum(int(row.split(",")[lines[0].split(",").index("total_comm_bytes")])
                    for row in lines[1:])
        assert f"total communication: {total} bytes" in out

    def test_plot_csv_emitted(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: 2\ndata: {scale: 0.02}\n")
        run_dir = run_command(cfg_path, out=str(tmp_path / "out"))
        plot = tmp_path / "plot.csv"
        assert main(["report", str(run_dir), "--plot-csv", str(plot)]) == EXIT_OK
        assert plot.exists()
        capsys.readouterr()

    def test_failed_run_prints_its_error_and_completed_rounds(self, tmp_path, capsys):
        # Client 0 (Dreaddit) diverges in round 4 at this learning rate.
        cfg_path = write_config(
            tmp_path, "learning_rate: 50.0\ndata:\n  overrides:\n    IRF: {n_train: 5}\n"
        )
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        (run_dir,) = (tmp_path / "out").iterdir()
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        summary = json.loads((run_dir / "summary.json").read_text())
        error = summary["error"]
        assert f"run failed: {error}\n" in out
        assert "round 4" in error
        assert "rounds: 3," in out
        adapters_sha256 = hashlib.sha256((run_dir / "adapters.bin").read_bytes()).hexdigest()
        assert summary["final_adapters_sha256"] == adapters_sha256

    def test_run_failed_in_round_one_reports_zero_rounds(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, "learning_rate: 1.0e+12\ndata:\n  overrides:\n    IRF: {n_train: 5}\n"
        )
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        (run_dir,) = (tmp_path / "out").iterdir()
        assert not (run_dir / "metrics.csv").exists()
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        error = json.loads((run_dir / "summary.json").read_text())["error"]
        assert "round 1" in error
        assert out == f"run: {run_dir}\nrun failed: {error}\nrounds: 0\n"
        plot = tmp_path / "plot.csv"
        assert main(["report", str(run_dir), "--plot-csv", str(plot)]) == EXIT_OK
        assert capsys.readouterr().out == f"{out}plot-ready CSV in {plot}\n"
        assert plot.read_bytes() == b"round,metric,value\r\n"

    def test_missing_run_dir_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["report", str(missing)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "summary.json" in err


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: -3\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "rounds" in err

    def test_failed_run_keeps_completed_rounds(self, tmp_path, capsys):
        # Client 0 (Dreaddit) diverges in round 4 at this learning rate.
        cfg_path = write_config(
            tmp_path, "learning_rate: 50.0\ndata:\n  overrides:\n    IRF: {n_train: 5}\n"
        )
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "round 4" in err
        (run_dir,) = (tmp_path / "out").iterdir()
        assert f"partial artifacts in {run_dir}" in err
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + rounds 1-3
        assert (run_dir / "adapters.bin").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["rounds_completed"] == 3
        assert "round 4" in summary["error"]
        assert "client 0 (Dreaddit)" in summary["error"]

    def test_unrotatable_domain_rejected_before_run_dir(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: 1\nmodel: {input_dim: 1, hidden_dim: 4, rank: 1}\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "model.input_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_override_rejected_before_run_dir(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: 1\ndata: {scale: 0.02}\n")
        out = tmp_path / "out"
        for override, message in [
            (["--seed", "-1"], "seed: must be a 64-bit unsigned integer, got -1"),
            (["--rounds", "0"], "rounds: must be >= 1, got 0"),
        ]:
            code = main(["run", "--config", str(cfg_path), *override, "--out", str(out)])
            assert code == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_cli_overrides_apply(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "rounds: 5\nseed: 1\ndata: {scale: 0.02}\n")
        code = main([
            "run", "--config", str(cfg_path), "--rounds", "2", "--seed", "7",
            "--out", str(tmp_path / "out"),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        run_dirs = list((tmp_path / "out").iterdir())
        assert len(run_dirs) == 1
        assert "seed7" in run_dirs[0].name
        summary = json.loads((run_dirs[0] / "summary.json").read_text())
        assert summary["rounds_completed"] == 2
        assert summary["config"]["seed"] == 7

    def test_config_echo_rerun_identical(self, tmp_path):
        # Echoing the parsed config back out and re-running matches exactly.
        cfg = config_from_dict({"rounds": 2, "seed": 11, "data": {"scale": 0.02}})
        echoed = config_from_dict(cfg.to_dict())
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        execute_run(cfg, d1)
        execute_run(echoed, d2)
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()
        assert (d1 / "adapters.bin").read_bytes() == (d2 / "adapters.bin").read_bytes()
