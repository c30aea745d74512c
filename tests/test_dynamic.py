"""Equivalence suite for :mod:`repro.dynamic` incremental maintenance.

The repaired operator must satisfy the same ``(1−c)·ε`` residual bound —
and hence the same ``< ε`` estimate bound against the dense
``linearized_simrank`` oracle — as a fresh recompute, for every update
kind (insert/delete/reweight) and for component merges and splits.
The cache chapter pins that every repaired snapshot is stored under the
ordinary key of the graph it describes, so any stream that reaches a
cached graph replays it without push work and a stream that revisits a
graph rewrites that graph's entry.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from _simrank_fixtures import disconnected, erdos_renyi, weighted
from repro.api import apply_updates
from repro.config import DynamicConfig, SimRankConfig
from repro.dynamic import DynamicOperator, RepairResult
from repro.dynamic.operator import _walk_of, maintained_fields
from repro.errors import ConfigError, GraphError, SimRankError
from repro.graphs.delta import DELTA_KINDS, GraphDelta, UpdateBatch
from repro.graphs.fingerprint import graph_fingerprint, payload_digest
from repro.graphs.graph import Graph
from repro.simrank.cache import CACHE_FORMAT_VERSION, get_operator_cache
from repro.simrank.engine import resume_localpush
from repro.simrank.exact import linearized_simrank
from repro.simrank.topk import simrank_operator
from repro.telemetry import SpanRecorder, Telemetry

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


def _broken_store(*args, **kwargs):
    raise RuntimeError("injected store failure")


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

    @pytest.mark.parametrize("endpoint", [0.9, True, np.True_, "5"],
                             ids=["fraction", "bool", "numpy-bool", "string"])
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
        combined = UpdateBatch(first.deltas + second.deltas)
        assert len(combined) == 2
        assert tuple(combined.touched_nodes()) == (0, 1, 2, 3)

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


class TestRepairDeterminism:
    """A repair is a function of the graph and the batch alone."""

    @pytest.mark.parametrize("kind", ["insert", "delete", "reweight"])
    def test_repair_is_bit_identical_across_operators(self, kind):
        graph = weighted(40, seed=9)
        pair = (absent_pairs(graph) if kind == "insert"
                else present_pairs(graph))[2]
        weight = (3.0 * float(graph.adjacency[pair[0], pair[1]])
                  if kind == "reweight" else None)
        delta = GraphDelta(kind, *pair, weight=weight)
        reference = DynamicOperator(graph, simrank=CONFIG)
        operator = DynamicOperator(graph, simrank=CONFIG)
        expected = reference.apply(delta)
        actual = operator.apply(delta)
        assert actual.num_pushes == expected.num_pushes > 0
        assert actual.num_rounds == expected.num_rounds
        before = reference.operator().matrix
        after = operator.operator().matrix
        assert np.array_equal(before.indptr, after.indptr)
        assert np.array_equal(before.indices, after.indices)
        assert np.array_equal(before.data, after.data)
        assert oracle_error(operator) < EPSILON


# --------------------------------------------------------------------- #
# The increment loop of a maintained repair
# --------------------------------------------------------------------- #
def mixed_stream(graph, seed, num_batches, edits=4):
    """``num_batches`` batches of ``edits`` inserts, deletes and reweights.

    Each batch is drawn against the graph the earlier ones reach (the
    shape of the served benchmark's update stream), touches each pair at
    most once, and is valid in order.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    batches = []
    for _ in range(num_batches):
        edges = present_pairs(graph)
        deltas, touched = [], set()
        while len(deltas) < edits:
            kind = DELTA_KINDS[int(rng.choice(3, p=(0.4, 0.3, 0.3)))]
            if kind == "insert":
                pair = tuple(sorted(int(x) for x in
                                    rng.choice(n, 2, replace=False)))
                if pair in touched or graph.adjacency[pair] != 0.0:
                    continue
            else:
                pair = edges[int(rng.integers(len(edges)))]
                if pair in touched:
                    continue
            weight = (round(float(rng.uniform(0.5, 2.0)), 3)
                      if kind == "reweight" else None)
            deltas.append(GraphDelta(kind, *pair, weight=weight))
            touched.add(pair)
        batch = UpdateBatch(tuple(deltas))
        graph = graph.apply_delta(batch)
        batches.append(batch)
    return batches


def merge_split_stream(graph, seed):
    """A component merge, the split that undoes it, mixed batches and a
    nudge (a reweight too small to push anything).

    ``graph`` is :func:`disconnected`: two components (nodes 0–29 and
    30–49) and five isolated nodes.
    """
    edges = present_pairs(graph)
    in_a = [pair for pair in edges if pair[1] < 30]
    in_b = [pair for pair in edges if pair[0] >= 30]
    merge = UpdateBatch((
        GraphDelta("insert", 5, 35),
        GraphDelta("insert", 10, graph.num_nodes - 1),
        GraphDelta("reweight", *in_a[0], weight=2.5),
        GraphDelta("delete", *in_b[0]),
    ))
    split = UpdateBatch((GraphDelta("delete", 5, 35),
                         GraphDelta("reweight", *in_b[1], weight=0.5)))
    stream = [merge, split]
    stream += mixed_stream(graph.apply_delta(merge).apply_delta(split),
                           seed, 6)
    for batch in stream:
        graph = graph.apply_delta(batch)
    pair = present_pairs(graph)[0]
    weight = float(graph.adjacency[pair]) * 1.001
    return stream + [UpdateBatch((GraphDelta("reweight", *pair,
                                             weight=weight),))]


def pinned_repair(operator, batch):
    """Repair ``operator`` by ``batch``, pinning the increment loop.

    The reference is the scanning loop resumed from the seeded sum
    ``R + correction``, the repair's arithmetic before the increment
    loop: the estimate delta, the residual and the counts must match
    bit for bit, the maintained residual must be left unwritten, and the
    operator must commit the pinned residual.
    """
    new_graph = operator.graph.apply_delta(batch)
    walk_new = _walk_of(new_graph)
    residual, correction, warm_start = operator._seed_repair(walk_new)
    run = None
    if correction is not None:
        kept = [array.copy() for array in
                (residual.data, residual.indices, residual.indptr)]
        reference = resume_localpush(new_graph, (residual + correction).tocsr(),
                                     decay=DECAY, epsilon=EPSILON)
        run = resume_localpush(new_graph, residual, decay=DECAY,
                               epsilon=EPSILON, increment=correction,
                               walk=walk_new)
        assert_bitwise_equal(reference.estimate_delta, run.estimate_delta)
        assert_bitwise_equal(reference.residual, run.residual)
        assert run.residual.dtype == reference.residual.dtype
        assert ((run.num_pushes, run.num_rounds, run.num_residual_entries)
                == (reference.num_pushes, reference.num_rounds,
                    reference.num_residual_entries))
        for before, after in zip(kept, (residual.data, residual.indices,
                                        residual.indptr)):
            assert np.array_equal(before, after)
    result = operator.apply(batch)
    assert result.warm_start == warm_start
    if run is not None:
        assert_bitwise_equal(run.residual, operator._residual)
        assert result.num_pushes == run.num_pushes
        assert result.num_rounds == run.num_rounds
    assert operator.residual_max <= operator.push_threshold
    return result


def warm_started(graph, tmp_path):
    """An estimate-only operator, warm-started from a cached entry."""
    maintenance = CONFIG.with_overrides(top_k=None, row_normalize=False,
                                        dtype="float64",
                                        cache_dir=str(tmp_path))
    simrank_operator(graph, config=maintenance)
    operator = DynamicOperator(
        graph, simrank=CONFIG, cache=get_operator_cache(tmp_path))
    assert operator.build_cache_hit
    return operator


class TestIncrementLoop:
    """A maintained repair returns bitwise what the scanning loop did."""

    @pytest.mark.parametrize("start", ["maintained", "reconstructed"])
    def test_bitwise_against_the_scanning_loop(self, start, tmp_path):
        graph = disconnected()
        operator = (DynamicOperator(graph, simrank=CONFIG)
                    if start == "maintained" else
                    warm_started(graph, tmp_path))
        results = [pinned_repair(operator, batch)
                   for batch in merge_split_stream(graph, seed=3)]
        assert [result.warm_start for result in results] == (
            [start] + ["maintained"] * (len(results) - 1))
        # The pin covered repairs of no round and of several rounds.
        maintained = [result.num_rounds for result in results
                      if result.warm_start == "maintained"]
        assert min(maintained) == 0 and max(maintained) >= 2
        assert oracle_error(operator) < EPSILON

    def test_a_failed_repair_leaves_the_residual_arrays_unchanged(self):
        graph = erdos_renyi(40, 0.1, seed=6)
        operator = DynamicOperator(
            graph, simrank=CONFIG,
            dynamic=DynamicConfig(repair_max_pushes=1))
        residual = operator._residual
        kept = [array.copy() for array in
                (residual.data, residual.indices, residual.indptr)]
        batch = [GraphDelta("insert", *pair)
                 for pair in absent_pairs(graph)[:3]]
        with pytest.raises(SimRankError, match="max_pushes"):
            operator.apply(batch)
        assert operator._residual is residual and operator.graph is graph
        for before, after in zip(kept, (residual.data, residual.indices,
                                        residual.indptr)):
            assert np.array_equal(before, after)

    @pytest.mark.slow
    def test_bitwise_over_a_long_stream(self):
        """2000 benchmark-shaped batches of four edits each."""
        from repro.datasets.registry import load_dataset

        graph = load_dataset("pokec", seed=0, scale_factor=0.05,
                             cache=False).graph
        operator = DynamicOperator(graph, simrank=CONFIG)
        rounds = [pinned_repair(operator, batch).num_rounds
                  for batch in mixed_stream(graph, seed=11,
                                            num_batches=2000)]
        assert max(rounds) >= 2


# --------------------------------------------------------------------- #
# Cache integration: warm start + graph-keyed repaired snapshots
# --------------------------------------------------------------------- #
def snapshot_path(cache, graph):
    """Where the maintained-contract entry of ``graph`` lives."""
    fields = maintained_fields(CONFIG, graph.num_nodes)
    fingerprint = graph_fingerprint(graph)
    return cache.path_for(
        cache.key_for_fields(graph, fields, fingerprint=fingerprint),
        fingerprint)


def assert_bitwise_equal(expected, actual):
    assert np.array_equal(expected.indptr, actual.indptr)
    assert np.array_equal(expected.indices, actual.indices)
    assert np.array_equal(expected.data, actual.data)


class TestRepairedSnapshotCache:
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

    def test_snapshot_round_trip_and_miss(self, tmp_path):
        graph = erdos_renyi(40, 0.1, seed=11)
        cache = get_operator_cache(tmp_path)
        batch = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[1]),))
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache)
        operator.apply(batch)
        assert operator.flush() is None
        # The one entry is the updated graph's, under its ordinary key.
        assert len(cache) == 1
        assert snapshot_path(cache, operator.graph).exists()

        replayed = DynamicOperator(operator.graph, simrank=CONFIG,
                                   cache=cache)
        assert replayed.build_cache_hit and replayed.build_pushes == 0
        assert replayed.updates_applied == 0
        assert np.array_equal(replayed.operator().matrix.toarray(),
                              operator.operator().matrix.toarray())
        # a replayed operator keeps accepting updates (reconstruction path)
        follow_up = replayed.apply(
            GraphDelta("insert", *absent_pairs(replayed.graph)[4]))
        assert follow_up.warm_start == "reconstructed"
        assert replayed.flush() is None
        assert oracle_error(replayed) < EPSILON

        other = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[7]),))
        assert not snapshot_path(cache, graph.apply_delta(other)).exists()
        uncached = apply_updates(graph, batch, config=CONFIG)
        assert not uncached.build_cache_hit
        assert uncached.updates_applied == 1

    def test_latest_state_wins_and_the_write_in_flight_completes(
            self, tmp_path, monkeypatch):
        graph = erdos_renyi(40, 0.1, seed=16)
        cache = get_operator_cache(tmp_path)
        entered, release = threading.Event(), threading.Event()
        store = cache.store

        def blocking_store(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30)
            return store(*args, **kwargs)

        monkeypatch.setattr(cache, "store", blocking_store)
        handle = Telemetry(recorder=SpanRecorder())
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache,
                                   telemetry=handle)
        pairs = absent_pairs(graph)
        deltas = [GraphDelta("insert", *pairs[i]) for i in (0, 3, 6)]
        operator.apply(deltas[0])
        assert entered.wait(timeout=30)  # the first write is in flight
        operator.apply(deltas[1])  # waits in the slot …
        operator.apply(deltas[2])  # … and is superseded here
        release.set()
        assert operator.flush() is None
        assert cache.stats()["stores"] == 2
        assert [span["attributes"]["superseded"]
                for span in handle.recorder.spans()
                if span["name"] == "dynamic.snapshot_write"] == [0, 1]

        assert snapshot_path(cache, graph.apply_delta(deltas[:1])).exists()
        assert not snapshot_path(cache, graph.apply_delta(deltas[:2])).exists()
        replayed = apply_updates(graph, deltas, config=CONFIG, cache=cache)
        assert replayed.build_cache_hit and replayed.repair_pushes == 0
        assert_bitwise_equal(operator.operator().matrix,
                             replayed.operator().matrix)

    def test_a_revisited_graph_rewrites_its_one_entry(self, tmp_path):
        graph = erdos_renyi(30, 0.12, seed=19)
        cache = get_operator_cache(tmp_path)
        pair = absent_pairs(graph)[0]
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache)
        for step in range(100):
            kind = "delete" if step % 2 else "insert"
            operator.apply(GraphDelta(kind, *pair))
            assert operator.flush() is None
        assert cache.stats()["stores"] == 100
        assert len(list(tmp_path.glob("simrank-*.npz"))) == 2
        assert snapshot_path(cache, graph).exists()

    def test_an_entry_under_a_foreign_key_still_warm_starts(self, tmp_path):
        """An entry named under the graph's fingerprint whose key is not
        the graph's own (here the base graph plus the update stream)
        serves that graph through the reuse scan, because its metadata
        dominates the request."""
        graph = erdos_renyi(40, 0.1, seed=20)
        batch = UpdateBatch((GraphDelta("insert", *absent_pairs(graph)[2]),))
        repaired = DynamicOperator(graph, simrank=CONFIG)
        repaired.apply(batch)
        updated = repaired.graph
        fields = maintained_fields(CONFIG, graph.num_nodes)
        foreign_key = payload_digest({
            "version": CACHE_FORMAT_VERSION,
            "base": graph_fingerprint(graph),
            "delta": payload_digest({"version": 1, "deltas": [
                delta.to_dict() for delta in batch]}),
            **{name: value for name, value in fields.items()
               if name != "dtype"}})
        cache = get_operator_cache(tmp_path)
        # CONFIG's serving contract is the maintained one.
        cache.store(foreign_key, repaired.operator(),
                    fingerprint=graph_fingerprint(updated))

        warm = DynamicOperator(updated, simrank=CONFIG, cache=cache)
        assert warm.build_cache_hit and warm.build_pushes == 0
        assert cache.stats()["reuse_hits"] == 1
        assert_bitwise_equal(repaired.operator().matrix,
                             warm.operator().matrix)

        # apply_updates derives no foreign key: it repairs once and
        # writes the graph-keyed entry, which the next call replays.
        first = apply_updates(graph, batch, config=CONFIG, cache=cache)
        assert first.updates_applied == 1 and first.repair_pushes > 0
        assert snapshot_path(cache, updated).exists()
        second = apply_updates(graph, batch, config=CONFIG, cache=cache)
        assert second.build_cache_hit and second.repair_pushes == 0

    def test_no_writer_thread_outlives_its_work(self, tmp_path):
        graph = erdos_renyi(30, 0.12, seed=17)
        cache = get_operator_cache(tmp_path)
        before = set(threading.enumerate())
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache)
        operator.apply(GraphDelta("insert", *absent_pairs(graph)[0]))
        assert operator.flush() is None
        assert cache.stats()["stores"] == 1
        assert [thread for thread in threading.enumerate()
                if thread not in before] == []
        alive = weakref.ref(operator)
        del operator
        gc.collect()
        assert alive() is None

    def test_failed_write_keeps_the_repair_and_reports_the_error(
            self, tmp_path, monkeypatch):
        graph = erdos_renyi(30, 0.12, seed=18)
        cache = get_operator_cache(tmp_path)
        monkeypatch.setattr(cache, "store", _broken_store)
        operator = DynamicOperator(graph, simrank=CONFIG, cache=cache)
        operator.apply(GraphDelta("insert", *absent_pairs(graph)[0]))
        error = operator.flush()
        # Not an OSError: recorded with its traceback, the thread survives
        # to the end of its loop and the repair stands.
        assert error is not None and "Traceback" in error
        assert "RuntimeError: injected" in error
        assert operator.write_error == error
        assert operator.updates_applied == 1
        assert oracle_error(operator) < EPSILON

    def test_key_validates_fields(self, tmp_path):
        cache = get_operator_cache(tmp_path / "keys")
        graph = erdos_renyi(10, 0.3, seed=1)
        fields = maintained_fields(CONFIG, graph.num_nodes)
        with pytest.raises(ValueError):
            cache.key_for_fields(graph, {"method": "localpush"})
        with pytest.raises(ValueError):
            cache.key_for_fields(graph, {**fields, "workers": 2})


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

    def test_a_reordered_stream_replays(self, tmp_path):
        graph = erdos_renyi(40, 0.1, seed=22)
        config = CONFIG.with_overrides(cache_dir=str(tmp_path))
        pairs = absent_pairs(graph)
        a, b = GraphDelta("insert", *pairs[0]), GraphDelta("insert", *pairs[9])
        first = apply_updates(graph, [a, b], config=config)
        assert not first.build_cache_hit and first.repair_pushes > 0
        second = apply_updates(graph, [b, a], config=config)
        assert second.build_cache_hit
        assert second.build_pushes == 0 and second.repair_pushes == 0
        # Nothing was repaired in the replayed operator.
        assert second.updates_applied == 0
        assert_bitwise_equal(first.operator().matrix,
                             second.operator().matrix)

    def test_a_cached_call_applies_the_batch_once(self, tmp_path,
                                                  monkeypatch):
        """The repair reuses the updated graph of the replay check."""
        graph = erdos_renyi(40, 0.1, seed=16)
        delta = GraphDelta("insert", *absent_pairs(graph)[0])
        calls = []
        apply_delta = Graph.apply_delta

        def counting(self, updates):
            calls.append(updates)
            return apply_delta(self, updates)

        monkeypatch.setattr(Graph, "apply_delta", counting)
        operator = apply_updates(
            graph, delta, config=CONFIG.with_overrides(cache_dir=str(tmp_path)))
        assert not operator.build_cache_hit and operator.updates_applied == 1
        assert len(calls) == 1
        monkeypatch.undo()
        assert_bitwise_equal(
            operator.operator().matrix,
            apply_updates(graph, delta, config=CONFIG).operator().matrix)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache"])
    def test_a_one_shot_iterable_of_deltas_is_applied(self, tmp_path,
                                                      cached):
        graph = erdos_renyi(40, 0.1, seed=14)
        delta = GraphDelta("insert", *absent_pairs(graph)[0])
        cache = get_operator_cache(tmp_path) if cached else None
        operator = apply_updates(graph, iter([delta]), config=CONFIG,
                                 cache=cache)
        assert operator.updates_applied == 1
        assert operator.graph.num_edges == graph.num_edges + 1


class TestDynamicConfig:
    def test_defaults_and_round_trip(self):
        config = DynamicConfig()
        assert config.max_batch_edges == 4096
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
