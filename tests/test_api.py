"""Suite for the public facade (`repro.api`)."""

import numpy as np
import pytest

from _simrank_fixtures import erdos_renyi as _erdos_renyi
from repro import api
from repro.config import RunSpec, SimRankConfig
from repro.errors import ConfigError
from repro.graphs.delta import GraphDelta
from repro.models.sigma import SIGMA
from repro.simrank.topk import simrank_operator
from repro.training.config import TrainConfig

SMOKE_TRAIN = TrainConfig(max_epochs=12, patience=6, min_epochs=2,
                          track_test_history=False)


class TestPrecompute:
    def test_matches_simrank_operator(self, small_heterophilous_graph):
        config = SimRankConfig(method="localpush", epsilon=0.1, top_k=8)
        via_api = api.precompute(small_heterophilous_graph, config)
        direct = simrank_operator(small_heterophilous_graph, config)
        assert np.array_equal(via_api.matrix.toarray(), direct.matrix.toarray())

    def test_default_config(self, tiny_graph):
        operator = api.precompute(tiny_graph)
        assert operator.matrix.shape == (6, 6)


class TestBuildModel:
    def test_by_name_with_simrank(self, small_heterophilous_graph):
        model = api.build_model("sigma", small_heterophilous_graph,
                                simrank=SimRankConfig(top_k=8), hidden=8,
                                rng=0)
        assert isinstance(model, SIGMA)
        assert model.simrank_config.top_k == 8

    def test_from_spec(self, small_heterophilous_graph):
        spec = RunSpec(model="sigma", overrides={"hidden": 8},
                       simrank=SimRankConfig(top_k=8))
        model = api.build_model(None, small_heterophilous_graph, spec=spec,
                                rng=0)
        assert isinstance(model, SIGMA)
        assert model.hidden == 8
        assert model.simrank_config.top_k == 8

    def test_explicit_overrides_beat_spec(self, small_heterophilous_graph):
        spec = RunSpec(model="sigma", overrides={"hidden": 8},
                       simrank=SimRankConfig(top_k=8))
        model = api.build_model(None, small_heterophilous_graph, spec=spec,
                                rng=0, hidden=16)
        assert model.hidden == 16

    def test_simrank_for_baseline_rejected(self, small_heterophilous_graph):
        with pytest.raises(ConfigError, match="glognn"):
            api.build_model("glognn", small_heterophilous_graph,
                            simrank=SimRankConfig())

    def test_name_required_without_spec(self, small_heterophilous_graph):
        with pytest.raises(ConfigError, match="model name"):
            api.build_model(None, small_heterophilous_graph)


class TestRun:
    def test_baseline_end_to_end(self):
        spec = RunSpec(model="mlp", dataset="texas", repeats=1,
                       overrides={"hidden": 16}, train=SMOKE_TRAIN)
        result = api.run(spec)
        assert result.spec is spec
        assert 0.0 <= result.summary.mean_accuracy <= 1.0
        row = result.as_row()
        assert row["model"] == "mlp" and row["dataset"] == "texas"

    def test_sigma_with_config_end_to_end(self):
        spec = RunSpec(model="sigma", dataset="texas", repeats=1,
                       overrides={"hidden": 16}, train=SMOKE_TRAIN,
                       simrank=SimRankConfig(top_k=8))
        result = api.run(spec)
        assert result.summary.mean_precompute_time > 0.0

    def test_result_to_dict_embeds_the_spec(self):
        spec = RunSpec(model="mlp", dataset="texas", repeats=1,
                       overrides={"hidden": 16}, train=SMOKE_TRAIN)
        payload = api.run(spec).to_dict()
        assert payload["spec"]["model"] == "mlp"
        assert payload["spec"]["train"]["max_epochs"] == 12
        assert "accuracy_mean" in payload


def _tighter_entry(graph, cache_dir):
    api.precompute(graph, SimRankConfig(method="localpush", epsilon=0.05,
                                        cache_dir=cache_dir))
    return graph


def _same_epsilon_entry(graph, cache_dir):
    api.precompute(graph, SimRankConfig(method="localpush", epsilon=0.1,
                                        cache_dir=cache_dir))
    return graph


def _repaired_snapshot(graph, cache_dir):
    """The entry ``apply_updates`` stores for the updated graph."""
    v = next(v for v in range(1, graph.num_nodes)
             if graph.adjacency[0, v] == 0.0)
    batch = [GraphDelta("insert", 0, v)]
    api.apply_updates(graph, batch, config=SimRankConfig(
        epsilon=0.1, cache_dir=cache_dir))
    return graph.apply_delta(batch)


class TestQueriesAlwaysCompute:
    """``topk``/``score`` compute their row whatever ``cache_dir`` holds:
    a cached entry never changes the answer."""

    @pytest.mark.parametrize("warm", [
        _tighter_entry, _same_epsilon_entry, _repaired_snapshot],
        ids=["tighter-entry", "same-epsilon-entry", "repaired-snapshot"])
    def test_a_cache_dir_never_changes_the_answer(self, tmp_path, warm):
        cache_dir = str(tmp_path / "operators")
        graph = warm(_erdos_renyi(60, 0.08, seed=0), cache_dir)
        assert any((tmp_path / "operators").iterdir())
        plain = SimRankConfig(method="localpush", epsilon=0.1)
        cached = plain.with_overrides(cache_dir=cache_dir)
        n = graph.num_nodes
        for u in range(n):
            row = api.topk(graph, u, n, plain)
            assert api.topk(graph, u, n, cached) == row, u  # bitwise
            v = row[1][0] if len(row) > 1 else (u + 1) % n
            assert api.score(graph, u, v, cached) \
                == api.score(graph, u, v, plain), (u, v)
