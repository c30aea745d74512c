"""Unit tests for ExperimentSpec / ExperimentCell / grid_product."""

import pytest

from repro.config import (
    SIGMA_DEFAULT_SIMRANK,
    ExperimentSpec,
    RunSpec,
    SimRankConfig,
    grid_product,
)
from repro.errors import ConfigError, TrainingError
from repro.training.config import TrainConfig


def make_spec(**changes):
    defaults = dict(
        name="demo",
        title="demo spec",
        base=RunSpec(model="sigma", dataset="texas", repeats=1,
                     simrank=SIGMA_DEFAULT_SIMRANK),
    )
    defaults.update(changes)
    return ExperimentSpec(**defaults)


class TestGridProduct:
    def test_first_axis_varies_slowest(self):
        grid = grid_product({"model": ("a", "b"), "dataset": ("x", "y")})
        assert grid == (
            {"model": "a", "dataset": "x"}, {"model": "a", "dataset": "y"},
            {"model": "b", "dataset": "x"}, {"model": "b", "dataset": "y"},
        )

    def test_single_axis(self):
        assert grid_product({"k": (1, 2, 3)}) == ({"k": 1}, {"k": 2}, {"k": 3})

    def test_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            grid_product([("k", (1, 2))])


class TestCellExpansion:
    def test_default_grid_is_one_base_cell(self):
        spec = make_spec()
        cells = spec.cells()
        assert len(cells) == 1 and spec.num_cells == 1
        assert cells[0].spec == spec.base
        assert cells[0].overrides == {}

    def test_explicit_empty_grid_runs_zero_cells(self):
        """An empty axis sweeps nothing — it never silently falls back to
        an un-requested base run."""
        spec = make_spec(grid=grid_product({"simrank.top_k": ()}))
        assert spec.cells() == [] and spec.num_cells == 0

    def test_direct_spec_fields(self):
        spec = make_spec(grid=({"dataset": "cora", "seed": 7},))
        cell = spec.cells()[0]
        assert cell.spec.dataset == "cora"
        assert cell.spec.seed == 7
        assert cell.spec.model == "sigma"

    def test_overrides_prefix_merges_with_base_overrides(self):
        base = RunSpec(model="sigma", dataset="texas",
                       overrides={"final_layers": 2})
        spec = make_spec(base=base, grid=({"overrides.delta": 0.3},))
        cell = spec.cells()[0]
        assert cell.spec.overrides == {"final_layers": 2, "delta": 0.3}

    def test_simrank_prefix_overrides_base_config(self):
        spec = make_spec(grid=({"simrank.epsilon": 0.05,
                                "simrank.top_k": 16},))
        cell = spec.cells()[0]
        assert cell.spec.simrank == SIGMA_DEFAULT_SIMRANK.with_overrides(
            epsilon=0.05, top_k=16)

    def test_simrank_prefix_without_base_config_rejected(self):
        base = RunSpec(model="sigma", dataset="texas")
        with pytest.raises(ConfigError, match="no SimRankConfig"):
            make_spec(base=base, grid=({"simrank.epsilon": 0.05},))

    def test_train_prefix_overrides_training(self):
        spec = make_spec(grid=({"train.max_epochs": 42},))
        assert spec.cells()[0].spec.train.max_epochs == 42

    def test_unknown_train_key_names_the_field(self):
        with pytest.raises(TrainingError,
                           match=r"^unknown TrainConfig field\(s\): bogus$"):
            make_spec(grid=({"train.bogus": 1},))

    def test_a_removed_simrank_field_names_itself(self):
        """A grid still setting the deleted worker count fails on the
        unknown field, not silently."""
        with pytest.raises(ConfigError,
                           match=r"^unknown SimRankConfig field\(s\): workers$"):
            make_spec(grid=({"simrank.workers": 2},))

    def test_declared_param_overridable_per_cell(self):
        spec = make_spec(params={"label": ""},
                         grid=({"label": "a"}, {"label": "b"}))
        assert [cell.params["label"] for cell in spec.cells()] == ["a", "b"]

    def test_undeclared_cell_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown cell key"):
            make_spec(grid=({"scale": 0.5},))

    def test_base_simrank_dropped_for_baseline_cells(self):
        """A grid mixing SIGMA with baselines inherits the operator config
        only on the SIGMA cells (the fig5 pattern)."""
        spec = make_spec(grid=({"model": "sigma"}, {"model": "glognn"}))
        sigma_cell, glognn_cell = spec.cells()
        assert sigma_cell.spec.simrank == SIGMA_DEFAULT_SIMRANK
        assert glognn_cell.spec.simrank is None

    def test_explicit_simrank_key_on_baseline_still_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(grid=({"model": "glognn", "simrank.epsilon": 0.05},))

    def test_cell_indices_follow_grid_order(self):
        spec = make_spec(grid=grid_product({"simrank.top_k": (4, 8, 16)}))
        assert [cell.index for cell in spec.cells()] == [0, 1, 2]
        assert spec.num_cells == 3


class TestSpecValidation:
    def test_name_required(self):
        with pytest.raises(ConfigError):
            make_spec(name="")

    def test_name_lowercased(self):
        assert make_spec(name="Fig6").name == "fig6"

    def test_base_must_be_runspec(self):
        with pytest.raises(ConfigError):
            make_spec(base={"model": "sigma"})

    def test_grid_entries_must_be_mappings(self):
        with pytest.raises(ConfigError):
            make_spec(grid=("not-a-mapping",))

    def test_malformed_grid_fails_at_construction(self):
        # Expansion happens eagerly in __post_init__, not at run time.
        with pytest.raises(ConfigError):
            make_spec(grid=({"simrank.no_such_field": 1},))


class TestTransforms:
    def test_with_base_rescales_every_cell(self):
        spec = make_spec(grid=({"dataset": "texas"}, {"dataset": "cora"}))
        scaled = spec.with_base(scale_factor=0.25)
        assert all(cell.spec.scale_factor == 0.25 for cell in scaled.cells())
        # The original is untouched (frozen value semantics).
        assert all(cell.spec.scale_factor == 1.0 for cell in spec.cells())

    def test_with_train_swaps_protocol(self):
        quick = TrainConfig(max_epochs=5, patience=2, min_epochs=1)
        spec = make_spec().with_train(quick)
        assert spec.cells()[0].spec.train == quick

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            make_spec().with_overrides(color="red")


class TestSerialisation:
    def test_round_trip(self):
        spec = make_spec(
            grid=grid_product({"simrank.epsilon": (0.05, 0.1),
                               "simrank.top_k": (8, 16)}),
            params={"tune": True},
            reduction={"bins": 20})
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [c.spec for c in clone.cells()] == [c.spec for c in spec.cells()]

    def test_from_dict_rejects_unknown_fields(self):
        payload = make_spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict(payload)

    def test_to_dict_is_json_ready(self):
        import json

        spec = make_spec(params={"num_pairs": 1000})
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()
