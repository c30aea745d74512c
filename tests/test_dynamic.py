"""Equivalence suite for :mod:`repro.dynamic` incremental maintenance.

The repaired operator must satisfy the same ``(1−c)·ε`` residual bound —
and hence the same ``< ε`` estimate bound against the dense
``linearized_simrank`` oracle — as a fresh recompute, for every update
kind (insert/delete/reweight), for component merges and splits, and
under every worker count.  The cache chapter pins the delta-chained entry
round-trip that lets a warm base entry + a small delta skip the full
precompute.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from _simrank_fixtures import disconnected, erdos_renyi, weighted
from repro.api import apply_updates
from repro.config import DynamicConfig, SimRankConfig
from repro.dynamic import DynamicOperator, RepairResult
from repro.errors import ConfigError, GraphError, SimRankError
from repro.graphs.delta import DELTA_KINDS, GraphDelta, UpdateBatch
from repro.graphs.fingerprint import graph_fingerprint, payload_digest
from repro.graphs.graph import Graph
from repro.simrank.cache import get_operator_cache
from repro.simrank.exact import linearized_simrank
from repro.simrank.topk import simrank_operator

EPSILON = 0.05
DECAY = 0.6

CONFIG = SimRankConfig(method="localpush", epsilon=EPSILON, decay=DECAY)


def absent_pairs(graph):
    dense = graph.adjacency.toarray()
    n = graph.num_nodes
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if dense[u, v] == 0]


def present_pairs(graph):
    return [tuple(map(int, pair)) for pair in graph.edge_list()]


def oracle_error(operator: DynamicOperator) -> float:
    reference = linearized_simrank(operator.graph, decay=DECAY,
                                   num_iterations=60)
    snapshot = operator.operator().matrix.toarray()
    return float(np.abs(snapshot - reference).max())


# --------------------------------------------------------------------- #
# GraphDelta / UpdateBatch
# --------------------------------------------------------------------- #
class TestGraphDelta:
    def test_canonicalises_endpoints(self):
        delta = GraphDelta("insert", 7, 3)
        assert (delta.u, delta.v) == (3, 7)
        assert delta.weight == 1.0

    def test_delete_carries_no_weight(self):
        assert GraphDelta("delete", 0, 1).weight is None
        with pytest.raises(GraphError):
            GraphDelta("delete", 0, 1, weight=2.0)

    @pytest.mark.parametrize("kind", DELTA_KINDS)
    def test_round_trips_through_dict(self, kind):
        weight = None if kind == "delete" else 2.5
        delta = GraphDelta(kind, 4, 2, weight=weight)
        assert GraphDelta.from_dict(delta.to_dict()) == delta

    @pytest.mark.parametrize("bad", [
        dict(kind="upsert", u=0, v=1),
        dict(kind="insert", u=0, v=0),
        dict(kind="insert", u=-1, v=1),
        dict(kind="insert", u=0, v=1, weight=0.0),
        dict(kind="insert", u=0, v=1, weight=-2.0),
        dict(kind="reweight", u=0, v=1, weight=float("nan")),
    ])
    def test_invalid_deltas_raise(self, bad):
        with pytest.raises(GraphError):
            GraphDelta(**bad)

    @pytest.mark.parametrize("endpoint", [0.9, True, "5"],
                             ids=["fraction", "bool", "string"])
    def test_non_integral_endpoints_are_rejected(self, endpoint):
        # Never truncated or parsed: 0.9 is not node 0, True not node 1,
        # "5" not node 5.
        with pytest.raises(GraphError, match="must be integers"):
            GraphDelta("delete", endpoint, 5)
        with pytest.raises(GraphError, match="must be integers"):
            GraphDelta.from_dict({"kind": "insert", "u": 2, "v": endpoint})

    def test_integral_numbers_are_node_ids(self):
        delta = GraphDelta("insert", 5.0, np.int64(2))
        assert (delta.u, delta.v) == (2, 5)
        assert type(delta.u) is int and type(delta.v) is int

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(GraphError):
            GraphDelta.from_dict({"kind": "insert", "u": 0, "v": 1,
                                  "extra": True})


class TestUpdateBatch:
    def test_coerce_accepts_delta_batch_and_iterable(self):
        delta = GraphDelta("insert", 0, 1)
        batch = UpdateBatch((delta,))
        assert UpdateBatch.coerce(delta) == batch
        assert UpdateBatch.coerce(batch) is batch
        assert UpdateBatch.coerce([delta]) == batch

    def test_concatenation_and_touched_nodes(self):
        first = UpdateBatch((GraphDelta("insert", 0, 1),))
        second = UpdateBatch((GraphDelta("delete", 2, 3),))
        combined = first + second
        assert len(combined) == 2
        assert tuple(combined.touched_nodes()) == (0, 1, 2, 3)

    def test_content_hash_is_order_sensitive_and_stable(self):
        a = GraphDelta("insert", 0, 1)
        b = GraphDelta("insert", 2, 3)
        assert (UpdateBatch((a, b)).content_hash()
                == UpdateBatch((a, b)).content_hash())
        assert (UpdateBatch((a, b)).content_hash()
                != UpdateBatch((b, a)).content_hash())

    def test_round_trips_through_dict(self):
        batch = UpdateBatch((GraphDelta("insert", 0, 1),
                             GraphDelta("delete", 2, 3),
                             GraphDelta("reweight", 1, 4, weight=2.0)))
        assert UpdateBatch.from_dict(batch.to_dict()) == batch


# --------------------------------------------------------------------- #
# Graph.apply_delta
# --------------------------------------------------------------------- #
class TestApplyDelta:
    def test_insert_delete_reweight_semantics(self):
        graph = erdos_renyi(20, 0.15, seed=3)
        insert_pair = absent_pairs(graph)[0]
        delete_pair = present_pairs(graph)[0]
        reweight_pair = present_pairs(graph)[1]
        updated = graph.apply_delta([
            GraphDelta("insert", *insert_pair),
            GraphDelta("delete", *delete_pair),
            GraphDelta("reweight", *reweight_pair, weight=3.0),
        ])
        dense = updated.adjacency.toarray()
        assert dense[insert_pair] == 1.0 and dense[insert_pair[::-1]] == 1.0
        assert dense[delete_pair] == 0.0 and dense[delete_pair[::-1]] == 0.0
        assert dense[reweight_pair] == 3.0
        # the original is untouched
        assert graph.adjacency.toarray()[delete_pair] != 0.0
        assert (updated.adjacency != updated.adjacency.T).nnz == 0

    def test_sequential_batch_semantics(self):
        graph = erdos_renyi(12, 0.2, seed=1)
        pair = absent_pairs(graph)[0]
        updated = graph.apply_delta([GraphDelta("insert", *pair),
                                     GraphDelta("delete", *pair)])
        assert updated.adjacency.toarray()[pair] == 0.0
        assert updated.num_edges == graph.num_edges

    def test_strictness_violations_raise(self):
        graph = erdos_renyi(12, 0.2, seed=1)
        present = present_pairs(graph)[0]
        absent = absent_pairs(graph)[0]
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta("insert", *present))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta("delete", *absent))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta("reweight", *absent, weight=2.0))
        with pytest.raises(GraphError):
            graph.apply_delta(GraphDelta("insert", 0, graph.num_nodes))

    def test_features_and_labels_carry_over(self):
        graph = erdos_renyi(10, 0.3, seed=2)
        graph = graph.with_labels(np.arange(10) % 2).with_features(np.eye(10))
        pair = absent_pairs(graph)[0]
        updated = graph.apply_delta(GraphDelta("insert", *pair))
        assert np.array_equal(updated.labels, graph.labels)
        assert np.array_equal(updated.features, graph.features)
        assert updated.name == graph.name


# --------------------------------------------------------------------- #
# Repair equivalence: every update kind, merges, splits
# --------------------------------------------------------------------- #
class TestRepairEquivalence:
    def test_insert_repair_matches_oracle_and_fresh(self):
        graph = erdos_renyi(50, 0.08, seed=0)
        operator = DynamicOperator(graph, simrank=CONFIG)
        result = operator.apply(GraphDelta("insert", *absent_pairs(graph)[3]))
        assert isinstance(result, RepairResult)
        assert result.warm_start == "maintained"
        assert operator.residual_max <= operator.push_threshold * (1 + 1e-12)
        assert oracle_error(operator) < EPSILON
        fresh = simrank_operator(operator.graph, config=CONFIG)
        diff = np.abs(operator.operator().matrix.toarray()
                      - fresh.matrix.toarray()).max()
        assert diff < 2 * EPSILON

    def test_delete_repair_matches_oracle(self):
        graph = erdos_renyi(50, 0.1, seed=4)
        operator = DynamicOperator(graph, simrank=CONFIG)
        operator.apply(GraphDelta("delete", *present_pairs(graph)[5]))
        assert oracle_error(operator) < EPSILON

    def test_reweight_repair_matches_oracle(self):
        graph = weighted(40, seed=5)
        operator = DynamicOperator(graph, simrank=CONFIG)
        pair = present_pairs(graph)[2]
        old = float(graph.adjacency[pair[0], pair[1]])
        operator.apply(GraphDelta("reweight", *pair, weight=old * 3.0))
        assert oracle_error(operator) < EPSILON

    def test_mixed_batch_and_repeated_updates_stay_in_bound(self):
        graph = erdos_renyi(40, 0.1, seed=6)
        operator = DynamicOperator(graph, simrank=CONFIG)
        for _ in range(3):
            batch = UpdateBatch((
                GraphDelta("insert", *absent_pairs(operator.graph)[1]),
                GraphDelta("delete", *present_pairs(operator.graph)[0]),
            ))
            operator.apply(batch)
            assert oracle_error(operator) < EPSILON
        assert operator.updates_applied == 3
        assert len(operator.chain) == 6

    def test_component_merge(self):
        graph = disconnected()  # two ER components + isolated nodes
        operator = DynamicOperator(graph, simrank=CONFIG)
        # Bridge the two components, then attach an isolated node.
        operator.apply([GraphDelta("insert", 5, 35),
                        GraphDelta("insert", 10, graph.num_nodes - 1)])
        assert oracle_error(operator) < EPSILON

    def test_component_split(self):
        # A dumbbell: two cliques joined by one bridge; deleting the
        # bridge splits the graph into two components.
        n = 12
        dense = np.zeros((n, n))
        dense[:6, :6] = 1.0
        dense[6:, 6:] = 1.0
        np.fill_diagonal(dense, 0.0)
        dense[5, 6] = dense[6, 5] = 1.0
        graph = Graph(sp.csr_matrix(dense), name="dumbbell")
        operator = DynamicOperator(graph, simrank=CONFIG)
        operator.apply(GraphDelta("delete", 5, 6))
        assert oracle_error(operator) < EPSILON

    def test_noop_batch_changes_nothing(self):
        graph = erdos_renyi(30, 0.1, seed=7)
        operator = DynamicOperator(graph, simrank=CONFIG)
        before = operator.operator().matrix.toarray()
        result = operator.apply(UpdateBatch())
        assert result.num_pushes == 0 and result.warm_start == "noop"
        assert np.array_equal(operator.operator().matrix.toarray(), before)

    def test_batch_cap_is_enforced(self):
        graph = erdos_renyi(30, 0.1, seed=7)
        operator = DynamicOperator(
            graph, simrank=CONFIG, dynamic=DynamicConfig(max_batch_edges=1))
        pairs = absent_pairs(graph)[:2]
        with pytest.raises(SimRankError):
            operator.apply([GraphDelta("insert", *pair) for pair in pairs])

    def test_failed_repair_leaves_state_untouched(self):
        graph = erdos_renyi(30, 0.1, seed=8)
        operator = DynamicOperator(graph, simrank=CONFIG)
        before = operator.operator().matrix.toarray()
        with pytest.raises(GraphError):
            operator.apply(GraphDelta("delete", *absent_pairs(graph)[0]))
        assert operator.graph is graph
        assert operator.updates_applied == 0
        assert np.array_equal(operator.operator().matrix.toarray(), before)


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_repair_is_bit_identical_across_worker_counts(self, workers):
        graph = erdos_renyi(60, 0.08, seed=9)
        batch = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[2]),
                             GraphDelta("delete", *present_pairs(graph)[1])))
        serial_config = CONFIG.with_overrides(workers=1)
        reference = DynamicOperator(graph, simrank=serial_config)
        reference.apply(batch)
        config = CONFIG.with_overrides(workers=workers)
        operator = DynamicOperator(graph, simrank=config)
        operator.apply(batch)
        expected = reference.operator().matrix
        actual = operator.operator().matrix
        assert np.array_equal(expected.indptr, actual.indptr)
        assert np.array_equal(expected.indices, actual.indices)
        assert np.array_equal(expected.data, actual.data)
        assert oracle_error(operator) < EPSILON


# --------------------------------------------------------------------- #
# Cache integration: warm start + delta chain
# --------------------------------------------------------------------- #
class TestDeltaChainedCache:
    def test_warm_base_entry_skips_the_full_build(self, tmp_path):
        graph = erdos_renyi(50, 0.1, seed=10)
        cache = get_operator_cache(tmp_path)
        maintenance = CONFIG.with_overrides(top_k=None, row_normalize=False,
                                            dtype="float64",
                                            cache_dir=str(tmp_path))
        simrank_operator(graph, config=maintenance)
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache)
        assert operator.build_cache_hit
        assert operator.build_pushes == 0
        result = operator.apply(
            GraphDelta("insert", *absent_pairs(graph)[0]))
        assert result.warm_start == "reconstructed"
        assert oracle_error(operator) < EPSILON

    def test_chain_round_trip_and_miss(self, tmp_path):
        graph = erdos_renyi(40, 0.1, seed=11)
        cache = get_operator_cache(tmp_path)
        batch = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[1]),))
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache)
        operator.apply(batch)

        chained = DynamicOperator.from_chain(graph, batch, simrank=CONFIG,
                                             cache=cache)
        assert chained is not None
        assert chained.build_cache_hit and chained.build_pushes == 0
        assert np.array_equal(chained.operator().matrix.toarray(),
                              operator.operator().matrix.toarray())
        # a chained operator keeps accepting updates (reconstruction path)
        follow_up = chained.apply(
            GraphDelta("insert", *absent_pairs(chained.graph)[4]))
        assert follow_up.warm_start == "reconstructed"
        assert oracle_error(chained) < EPSILON

        other = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[7]),))
        assert DynamicOperator.from_chain(graph, other, simrank=CONFIG,
                                          cache=cache) is None
        assert DynamicOperator.from_chain(graph, batch, simrank=CONFIG,
                                          cache=None) is None

    def test_store_repaired_false_writes_nothing(self, tmp_path):
        graph = erdos_renyi(30, 0.12, seed=12)
        cache = get_operator_cache(tmp_path / "off")
        operator = DynamicOperator(
            graph, simrank=CONFIG, cache=cache,
            dynamic=DynamicConfig(store_repaired=False))
        batch = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[0]),))
        operator.apply(batch)
        assert cache.stats()["stores"] == 0
        assert DynamicOperator.from_chain(graph, batch, simrank=CONFIG,
                                          cache=cache) is None

    def test_delta_key_validates_fields(self, tmp_path):
        cache = get_operator_cache(tmp_path / "keys")
        with pytest.raises(ValueError):
            cache.delta_key_for("base", "delta", {"method": "localpush"})


# --------------------------------------------------------------------- #
# Shared fingerprint helpers
# --------------------------------------------------------------------- #
class TestFingerprintHelpers:
    def test_graph_fingerprint_tracks_structure(self):
        graph = erdos_renyi(20, 0.2, seed=13)
        updated = graph.apply_delta(
            GraphDelta("insert", *absent_pairs(graph)[0]))
        assert graph_fingerprint(graph) == graph_fingerprint(graph.copy())
        assert graph_fingerprint(graph) != graph_fingerprint(updated)

    def test_payload_digest_is_key_order_independent(self):
        assert (payload_digest({"a": 1, "b": 2})
                == payload_digest({"b": 2, "a": 1}))
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


# --------------------------------------------------------------------- #
# Facade and config
# --------------------------------------------------------------------- #
class TestApplyUpdatesFacade:
    def test_returns_a_live_repaired_operator(self):
        graph = erdos_renyi(40, 0.1, seed=14)
        operator = apply_updates(
            graph, GraphDelta("insert", *absent_pairs(graph)[0]),
            config=CONFIG)
        assert isinstance(operator, DynamicOperator)
        assert operator.updates_applied == 1
        assert oracle_error(operator) < EPSILON

    def test_second_identical_call_replays_from_the_chain(self, tmp_path):
        graph = erdos_renyi(40, 0.1, seed=15)
        config = CONFIG.with_overrides(cache_dir=str(tmp_path))
        delta = GraphDelta("insert", *absent_pairs(graph)[0])
        first = apply_updates(graph, delta, config=config)
        second = apply_updates(graph, delta, config=config)
        assert second.build_cache_hit
        assert second.repair_pushes == 0
        assert np.array_equal(first.operator().matrix.toarray(),
                              second.operator().matrix.toarray())


class TestDynamicConfig:
    def test_defaults_and_round_trip(self):
        config = DynamicConfig()
        assert config.max_batch_edges == 4096
        assert config.background_repair and config.store_repaired
        assert DynamicConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("kwargs", [
        dict(max_batch_edges=0),
        dict(max_batch_edges="many"),
        dict(repair_max_pushes=0),
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            DynamicConfig(**kwargs)

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            DynamicConfig().with_overrides(max_edges=1)
