"""Suite for the config layer (`repro.config`).

Covers the acceptance criteria of the config-object API redesign:

* ``SimRankConfig`` / ``RunSpec`` round-trip through ``to_dict`` /
  ``from_dict`` and reject unknown fields and invalid values.
* ``SimRankConfig.from_cli_args`` is in parity with the CLI flags: every
  mapped flag exists on the parser and lands in the right field; the
  serve configs are in parity with the ``serve`` parser.
* All seven frozen configs share one contract (``FrozenConfig``): the
  round trip, the unknown-field and non-mapping errors word for word,
  and an empty command line bridging to the defaults.
* The config is the only path into the operator pipeline and the SIGMA
  models: they take no per-field keywords.
"""

import argparse
import dataclasses

import pytest

from repro.config import (
    CACHE_KEY_EXEMPT,
    CACHE_KEY_FIELDS,
    SIGMA_DEFAULT_SIMRANK,
    DynamicConfig,
    ExperimentSpec,
    FrozenConfig,
    RunSpec,
    ServeConfig,
    SimRankConfig,
    TelemetryConfig,
)
from repro.errors import ConfigError, TrainingError
from repro.simrank.cache import get_operator_cache, graph_fingerprint
from repro.simrank.topk import simrank_operator
from repro.training.config import TrainConfig


class TestSimRankConfigValidation:
    def test_defaults_are_valid(self):
        config = SimRankConfig()
        assert config.method == "auto"
        assert config.epsilon == 0.1
        assert config.top_k is None

    @pytest.mark.parametrize("bad", [
        {"method": "magic"},
        {"decay": 0.0},
        {"decay": 1.0},
        {"epsilon": 0.0},
        {"epsilon": -0.1},
        {"top_k": 0},
        {"top_k": -4},
        {"top_k": True},
        {"exact_size_limit": -1},
        {"cache_max_bytes": 0},
        {"cache_max_bytes": -5},
        {"epsilon": "abc"},
        {"decay": None},
        {"top_k": "many"},
        {"cache_dir": 42},
        {"decay": float("nan")},
        {"decay": float("inf")},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"epsilon": "inf"},
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ConfigError):
            SimRankConfig(**bad)

    def test_removed_execution_axes_are_unknown_fields(self):
        """The engine-family label, the kernel label, the executor and the
        worker count are gone (the engine has no execution setting): a
        serialised config that still carries one is rejected, not
        silently dropped."""
        assert len(SimRankConfig().to_dict()) == 9
        for name, value in (("backend", "auto"), ("kernel", "fused"),
                            ("executor", "thread"), ("workers", 2)):
            with pytest.raises(ConfigError,
                               match=rf"unknown SimRankConfig field\(s\): {name}"):
                SimRankConfig.from_dict({name: value})
            with pytest.raises(ConfigError, match=name):
                SimRankConfig().with_overrides(**{name: value})

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            SimRankConfig(cache_max_bytes=-1)

    def test_coercion(self, tmp_path):
        config = SimRankConfig(decay="0.5", epsilon="0.2", top_k=8.0,
                               cache_dir=tmp_path)
        assert config.decay == 0.5 and isinstance(config.decay, float)
        assert config.top_k == 8 and isinstance(config.top_k, int)
        assert config.cache_dir == str(tmp_path)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimRankConfig().epsilon = 0.5


class TestSimRankConfigCopies:
    def test_with_overrides_returns_validated_copy(self):
        base = SimRankConfig()
        tight = base.with_overrides(epsilon=0.01, top_k=16)
        assert tight.epsilon == 0.01 and tight.top_k == 16
        assert base.epsilon == 0.1 and base.top_k is None

    @pytest.mark.parametrize("name", ["num_workers", "workers"])
    def test_with_overrides_rejects_unknown_fields(self, name):
        with pytest.raises(ConfigError, match=name):
            SimRankConfig().with_overrides(**{name: 4})

    def test_with_overrides_revalidates(self):
        with pytest.raises(ConfigError):
            SimRankConfig().with_overrides(epsilon=-1.0)


class TestSimRankConfigSerialisation:
    def test_round_trip(self, tmp_path):
        config = SimRankConfig(method="localpush", decay=0.7, epsilon=0.05,
                               top_k=16, row_normalize=True,
                               cache_dir=str(tmp_path), cache_max_bytes=1 << 20)
        assert SimRankConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_serialisable(self):
        import json

        json.dumps(SimRankConfig().to_dict())

    @pytest.mark.parametrize("name", ["num_workers", "workers"])
    def test_from_dict_rejects_unknown_fields(self, name):
        with pytest.raises(ConfigError, match=name):
            SimRankConfig.from_dict({name: 4})

    def test_from_dict_validates(self):
        with pytest.raises(ConfigError):
            SimRankConfig.from_dict({"epsilon": -1.0})


class TestCacheKeyFields:
    def test_field_set_is_canonical(self):
        fields = SimRankConfig().cache_key_fields(num_nodes=500)
        assert tuple(fields) == CACHE_KEY_FIELDS

    def test_auto_resolves_by_size(self):
        config = SimRankConfig(exact_size_limit=100)
        assert config.cache_key_fields(50)["method"] == "series"
        assert config.cache_key_fields(101)["method"] == "localpush"

    def test_exact_method_drops_epsilon(self):
        fields = SimRankConfig(method="exact").cache_key_fields(50)
        assert fields["epsilon"] is None

    @pytest.mark.parametrize("name", CACHE_KEY_EXEMPT)
    def test_exempt_fields_never_enter_the_key(self, name, tmp_path):
        """A field kept out of the key moves no operator to a new entry
        (a new exempt field needs a changed value here)."""
        changed = {"exact_size_limit": 10, "cache_dir": str(tmp_path),
                   "cache_max_bytes": 1 << 20}[name]
        plain = SimRankConfig(method="localpush")
        other = plain.with_overrides(**{name: changed})
        assert getattr(other, name) != getattr(plain, name)
        for num_nodes in (100, 1000, 5000):
            assert plain.cache_key_fields(num_nodes) == \
                other.cache_key_fields(num_nodes)

    def test_operator_is_stored_under_its_cache_key_fields(
            self, small_heterophilous_graph, tmp_path):
        """``simrank_operator`` writes its entry exactly where the one key
        derivation, ``key_for_fields`` over ``cache_key_fields``, points."""
        graph = small_heterophilous_graph
        cache = get_operator_cache(tmp_path / "keys")
        config = SimRankConfig(method="localpush", epsilon=0.1, top_k=8,
                               cache_dir=str(cache.directory))
        simrank_operator(graph, config=config)
        key = cache.key_for_fields(
            graph, config.cache_key_fields(graph.num_nodes))
        assert [path.name for path in cache.directory.glob("simrank-*.npz")] \
            == [cache.path_for(key, graph_fingerprint(graph)).name]


class TestFromCliArgs:
    def test_every_mapped_flag_exists_on_the_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([])
        for attr in SimRankConfig.CLI_FLAG_FIELDS:
            assert hasattr(args, attr), f"parser is missing --{attr}"

    def test_flag_parity(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "--simrank-method", "localpush", "--decay", "0.7",
            "--epsilon", "0.05", "--top-k", "16",
            "--simrank-cache-dir", str(tmp_path),
            "--simrank-cache-max-bytes", "4096",
        ])
        config = SimRankConfig.from_cli_args(args)
        assert config == SimRankConfig(
            method="localpush", decay=0.7, epsilon=0.05, top_k=16,
            cache_dir=str(tmp_path), cache_max_bytes=4096)

    def test_unset_flags_inherit_from_base(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--epsilon", "0.05"])
        config = SimRankConfig.from_cli_args(args, base=SIGMA_DEFAULT_SIMRANK)
        assert config.epsilon == 0.05
        assert config.top_k == SIGMA_DEFAULT_SIMRANK.top_k == 32

    def test_every_mapped_serve_flag_exists_on_the_serve_parser(self):
        from repro.serve.daemon import build_parser

        args = build_parser().parse_args(["texas"])
        for cls in (ServeConfig, DynamicConfig, TelemetryConfig):
            for attr in cls.CLI_FLAG_FIELDS:
                assert hasattr(args, attr), \
                    f"serve parser is missing {cls.__name__}'s --{attr}"

    def test_serve_flag_parity(self, tmp_path):
        """Every serve flag set away from its default lands in its field."""
        from repro.serve.daemon import build_parser

        trace = str(tmp_path / "trace.jsonl")
        args = build_parser().parse_args([
            "texas", "--host", "0.0.0.0", "--port", "0",
            "--serve-top-k", "7", "--time-budget", "0.5",
            "--max-pushes-per-query", "100",
            "--degraded-epsilon-factor", "4",
            "--epsilon", "0.2", "--decay", "0.7",
            "--cache-dir", str(tmp_path),
            "--max-batch-edges", "16", "--repair-max-pushes", "1000",
            "--telemetry",
            "--trace-path", trace, "--max-recorded-spans", "64",
        ])
        assert SimRankConfig.from_cli_args(args) == SimRankConfig(
            epsilon=0.2, decay=0.7, cache_dir=str(tmp_path))
        assert ServeConfig.from_cli_args(args) == ServeConfig(
            host="0.0.0.0", port=0, default_top_k=7,
            time_budget_seconds=0.5, max_pushes_per_query=100,
            degraded_epsilon_factor=4.0)
        assert DynamicConfig.from_cli_args(args) == DynamicConfig(
            max_batch_edges=16, repair_max_pushes=1000)
        assert TelemetryConfig.from_cli_args(args) == TelemetryConfig(
            enabled=True, trace_path=trace, max_recorded_spans=64)


class TestServeConfigValidation:
    @pytest.mark.parametrize("bad,message", [
        ({"port": 70000}, "port must be in [0, 65535], got 70000"),
        ({"default_top_k": 0},
         "default_top_k must be a positive integer, got 0"),
        ({"time_budget_seconds": 0.0},
         "time_budget_seconds must be positive or None, got 0.0"),
        ({"time_budget_seconds": float("nan")},
         "time_budget_seconds must be a finite number, got nan"),
        ({"time_budget_seconds": float("inf")},
         "time_budget_seconds must be a finite number, got inf"),
        ({"degraded_epsilon_factor": 0.5},
         "degraded_epsilon_factor must exceed 1.0 (the fallback must "
         "loosen ε), got 0.5"),
        ({"degraded_epsilon_factor": float("nan")},
         "degraded_epsilon_factor must be a finite number, got nan"),
        ({"degraded_epsilon_factor": float("inf")},
         "degraded_epsilon_factor must be a finite number, got inf"),
    ])
    def test_invalid_fields_raise(self, bad, message):
        with pytest.raises(ConfigError) as excinfo:
            ServeConfig(**bad)
        assert str(excinfo.value) == message


class TestNoServeSwitches:
    """The serve stack runs one way: no rung, repair mode or snapshot
    store can be switched off, so the configs hold only valued fields."""

    def test_field_counts(self):
        assert [f.name for f in dataclasses.fields(ServeConfig)] == [
            "host", "port", "default_top_k", "time_budget_seconds",
            "max_pushes_per_query", "degraded_epsilon_factor"]
        assert [f.name for f in dataclasses.fields(DynamicConfig)] == [
            "max_batch_edges", "repair_max_pushes"]
        assert not hasattr(FrozenConfig, "CLI_SWITCHES")

    @pytest.mark.parametrize("cls,name", [
        (ServeConfig, "exact_enabled"),
        (ServeConfig, "serve_cached_rows"),
        (DynamicConfig, "store_repaired"),
        (DynamicConfig, "background_repair"),
    ])
    def test_a_deleted_switch_is_an_unknown_field(self, cls, name):
        with pytest.raises(ConfigError) as excinfo:
            cls.from_dict({name: False})
        assert str(excinfo.value) == \
            f"unknown {cls.__name__} field(s): {name}"


class TestTrainConfigSerialisation:
    def test_round_trip(self):
        config = TrainConfig(learning_rate=0.02, weight_decay=1e-3,
                             patience=7, max_epochs=50)
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(TrainingError, match="momentum_decay"):
            TrainConfig.from_dict({"momentum_decay": 0.9})


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.model == "sigma" and spec.dataset == "texas"
        assert spec.train == TrainConfig()

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="transformer"):
            RunSpec(model="transformer")

    def test_model_name_normalised(self):
        assert RunSpec(model="SIGMA").model == "sigma"

    def test_simrank_only_for_sigma_models(self):
        with pytest.raises(ConfigError, match="glognn"):
            RunSpec(model="glognn", simrank=SimRankConfig())
        RunSpec(model="sigma_iterative", simrank=SimRankConfig())  # fine

    @pytest.mark.parametrize("bad", [
        {"repeats": 0},
        {"scale_factor": 0.0},
        {"scale_factor": float("nan")},
        {"scale_factor": float("inf")},
        {"overrides": "hidden=16"},
        {"simrank": "localpush"},
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ConfigError):
            RunSpec(**bad)

    def test_round_trip_with_nested_configs(self):
        spec = RunSpec(model="sigma", dataset="chameleon",
                       overrides={"hidden": 16},
                       train=TrainConfig(max_epochs=20, patience=5),
                       simrank=SimRankConfig(epsilon=0.05, top_k=8),
                       seed=7, repeats=2, scale_factor=0.5)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serialisable(self):
        import json

        json.dumps(RunSpec(simrank=SimRankConfig(top_k=8)).to_dict())

    def test_a_stored_spec_naming_workers_is_rejected(self):
        """A serialised spec from before the worker count was deleted
        fails on the unknown field instead of dropping it."""
        payload = RunSpec(simrank=SimRankConfig(top_k=8)).to_dict()
        payload["simrank"]["workers"] = 2
        with pytest.raises(ConfigError,
                           match=r"unknown SimRankConfig field\(s\): workers"):
            RunSpec.from_dict(payload)

    def test_simrank_inside_overrides_round_trips(self):
        """__post_init__ permits the config inside overrides; that shape
        must serialise and reconstruct too."""
        import json

        spec = RunSpec(model="sigma",
                       overrides={"hidden": 16,
                                  "simrank": SimRankConfig(top_k=8)})
        payload = spec.to_dict()
        json.dumps(payload)
        rebuilt = RunSpec.from_dict(payload)
        assert rebuilt.overrides["simrank"] == SimRankConfig(top_k=8)
        assert rebuilt == spec

    def test_with_overrides(self):
        spec = RunSpec().with_overrides(dataset="cornell", repeats=3)
        assert spec.dataset == "cornell" and spec.repeats == 3
        with pytest.raises(ConfigError):
            RunSpec().with_overrides(epochs=10)


# ---------------------------------------------------------------------- #
# One contract for every frozen config
# ---------------------------------------------------------------------- #
def _contract_instances():
    """One non-default instance of each frozen config, with its error."""
    train = TrainConfig(learning_rate=0.02, weight_decay=1e-3, max_epochs=50,
                        patience=7, optimizer="sgd", momentum=0.5,
                        min_epochs=3, track_test_history=False,
                        model_overrides={"hidden": 16})
    run = RunSpec(model="sigma", dataset="chameleon",
                  overrides={"hidden": 16}, train=train,
                  simrank=SimRankConfig(epsilon=0.05, top_k=8), seed=7,
                  repeats=2, scale_factor=0.5)
    return [
        (SimRankConfig(method="localpush", decay=0.7, epsilon=0.05, top_k=16,
                       row_normalize=True, exact_size_limit=100,
                       cache_dir="operator-cache", cache_max_bytes=1 << 20,
                       dtype="float32"), ConfigError),
        (ServeConfig(host="0.0.0.0", port=0, default_top_k=7,
                     time_budget_seconds=0.5, max_pushes_per_query=100,
                     degraded_epsilon_factor=4.0), ConfigError),
        (DynamicConfig(max_batch_edges=16, repair_max_pushes=1000),
         ConfigError),
        (TelemetryConfig(enabled=True, trace_path="trace.jsonl",
                         max_recorded_spans=64), ConfigError),
        (train, TrainingError),
        (run, ConfigError),
        (ExperimentSpec(name="contract", base=run, title="Contract",
                        grid=({"seed": 1}, {"train.patience": 3}),
                        params={"num_pairs": 10}, reduction={"bins": 5}),
         ConfigError),
    ]


CONTRACT = _contract_instances()
CONTRACT_IDS = [type(instance).__name__ for instance, _ in CONTRACT]
CLI_CONFIGS = (SimRankConfig, ServeConfig, DynamicConfig, TelemetryConfig)


@pytest.mark.parametrize("instance,error", CONTRACT, ids=CONTRACT_IDS)
class TestFrozenConfigContract:
    """Every frozen config round-trips and rejects a bad name or payload
    with the same words."""

    def test_round_trip(self, instance, error):
        cls = type(instance)
        assert cls.from_dict(instance.to_dict()) == instance

    def test_with_overrides_rejects_an_unknown_field(self, instance, error):
        with pytest.raises(error) as excinfo:
            instance.with_overrides(bogus=1)
        assert excinfo.type is error
        assert str(excinfo.value) == \
            f"unknown {type(instance).__name__} field(s): bogus"

    def test_from_dict_rejects_an_unknown_field(self, instance, error):
        with pytest.raises(error) as excinfo:
            type(instance).from_dict({"bogus": 1})
        assert excinfo.type is error
        assert str(excinfo.value) == \
            f"unknown {type(instance).__name__} field(s): bogus"

    def test_from_dict_rejects_a_non_mapping(self, instance, error):
        with pytest.raises(error) as excinfo:
            type(instance).from_dict([1])
        assert excinfo.type is error
        assert str(excinfo.value) == \
            f"{type(instance).__name__}.from_dict expects a mapping, got list"


@pytest.mark.parametrize(
    "instance", [instance for instance, _ in CONTRACT
                 if type(instance) in CLI_CONFIGS],
    ids=[cls.__name__ for cls in CLI_CONFIGS])
def test_an_empty_command_line_is_the_base(instance):
    """No flag set: the defaults, or the ``base`` object itself."""
    cls = type(instance)
    assert cls.from_cli_args(argparse.Namespace()) == cls()
    assert cls.from_cli_args(argparse.Namespace(), base=instance) is instance


# ---------------------------------------------------------------------- #
# The config is the only way in
# ---------------------------------------------------------------------- #
class TestConfigOnlyEntryPoints:
    def test_simrank_operator_takes_no_field_keywords(self, tiny_graph):
        with pytest.raises(TypeError):
            simrank_operator(tiny_graph, epsilon=0.2)

    @pytest.mark.parametrize("model", ["sigma", "sigma_iterative"])
    def test_sigma_models_take_no_field_keywords(self, tiny_graph, model):
        from repro.models.registry import create_model

        with pytest.raises(TypeError):
            create_model(model, tiny_graph, hidden=8, rng=0, epsilon=0.1)

    def test_sigma_default_config_matches_paper_settings(
            self, small_heterophilous_graph):
        from repro.models.sigma import SIGMA

        model = SIGMA(small_heterophilous_graph, hidden=8, rng=0)
        assert model.simrank_config == SIGMA_DEFAULT_SIMRANK
        assert model.simrank_config.top_k == 32
        assert model.simrank_config.epsilon == 0.1

    def test_sigma_iterative_default_config(self, small_heterophilous_graph):
        from repro.models.sigma_iterative import SIGMAIterative

        model = SIGMAIterative(small_heterophilous_graph, hidden=8,
                               num_layers=1, rng=0)
        assert model.simrank_config == SIGMA_DEFAULT_SIMRANK

    def test_top_k_none_means_no_pruning(self, small_heterophilous_graph):
        from repro.models.sigma import SIGMA

        model = SIGMA(small_heterophilous_graph, hidden=8, rng=0,
                      simrank=SIGMA_DEFAULT_SIMRANK.with_overrides(top_k=None))
        assert model.simrank_config.top_k is None
        assert model.simrank.top_k is None


class TestErrorCompatibility:
    def test_config_error_is_a_simrank_error(self, tiny_graph):
        """Callers that wrap the precompute in ``except SimRankError``
        still catch config validation failures."""
        from repro.errors import SimRankError

        with pytest.raises(SimRankError):
            simrank_operator(tiny_graph, SimRankConfig(method="magic"))
        with pytest.raises(SimRankError):
            simrank_operator(tiny_graph, SimRankConfig(top_k=0))
