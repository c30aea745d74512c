"""Round-trip / invalidation / corruption suite for the operator cache.

Covers the persistent SimRank operator cache of
:mod:`repro.simrank.cache`: hit/miss round trips through
``simrank_operator``, key sensitivity in every keyed dimension, versioned
invalidation, corruption eviction, and the end-to-end acceptance check —
a warm cache makes a repeated Fig. 5 run skip LocalPush precompute,
asserted via the shared cache-hit counter.

The suite drives the pipeline through the supported config API
(``SimRankConfig`` with ``cache_dir``); the ``_operator`` helper maps the
historical keyword spellings of the assertions onto it.
"""

import gc
import json
import os
import sys
import threading
import warnings
import zipfile

import numpy as np
import pytest

from repro.config import SIGMA_DEFAULT_SIMRANK, SimRankConfig
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.experiments import run_experiment
from repro.experiments.common import QUICK_EXPERIMENT_CONFIG
from repro.graphs.graph import Graph
from repro.simrank.cache import (
    CACHE_FORMAT_VERSION,
    OperatorCache,
    get_operator_cache,
    graph_fingerprint,
)
from repro.simrank.topk import simrank_operator


def _operator(graph, *, cache=None, cache_max_bytes=None, num_workers=None,
              **fields):
    """``simrank_operator`` via the config API, with a cache handle."""
    if num_workers is not None:
        fields["workers"] = num_workers
    config = SimRankConfig(**fields)
    if cache is not None:
        directory = cache.directory if isinstance(cache, OperatorCache) else cache
        config = config.with_overrides(cache_dir=str(directory),
                                       cache_max_bytes=cache_max_bytes)
    return simrank_operator(graph, config)


@pytest.fixture()
def graph() -> Graph:
    config = SyntheticGraphConfig(
        num_nodes=120, num_classes=3, num_features=4, average_degree=6.0,
        homophily=0.3, name="cache-sbm")
    return generate_synthetic_graph(config, seed=0)


@pytest.fixture()
def cache(tmp_path) -> OperatorCache:
    # Via the registry so the instance the pipeline resolves from
    # ``cache_dir`` is this one (shared counters).
    return get_operator_cache(tmp_path / "operators")


class TestGraphFingerprint:
    def test_stable_and_name_independent(self, graph):
        renamed = Graph(graph.adjacency.copy(), features=graph.features,
                        labels=graph.labels, name="other-name")
        assert graph_fingerprint(graph) == graph_fingerprint(renamed)

    def test_sensitive_to_topology_and_weights(self, graph):
        reference = graph_fingerprint(graph)
        dense = graph.adjacency.toarray()
        rows, cols = np.nonzero(np.triu(dense, k=1))
        dense[rows[0], cols[0]] = dense[cols[0], rows[0]] = 0.0
        assert graph_fingerprint(Graph(dense)) != reference
        reweighted = graph.adjacency.copy()
        reweighted.data = reweighted.data * 2.0
        assert graph_fingerprint(Graph(reweighted)) != reference


class TestCounters:
    """Every cache event is counted once, on the cache's own registry."""

    NAMES = ("hits", "exact_hits", "reuse_hits", "misses", "stores",
             "evictions", "lru_evictions", "row_hits", "row_misses")

    def test_stats_read_the_registry_counter(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.05, top_k=None,
                  cache=cache)
        _operator(graph, method="localpush", epsilon=0.05, top_k=None,
                  cache=cache)
        cache.lookup_row(graph, 3, decay=0.6, epsilon=0.1, top_k=5,
                         row_normalize=False)
        stats = cache.stats()
        assert tuple(stats) == self.NAMES
        events = cache.registry.counter("repro_cache_events_total")
        for name, event in (("exact_hits", "exact_hit"),
                            ("misses", "miss"), ("stores", "store"),
                            ("row_hits", "row_hit")):
            assert stats[name] == events.value(event=event) == 1
        assert stats["hits"] == stats["exact_hits"] + stats["reuse_hits"]

    def test_the_cache_sets_no_integer_counter_attribute(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.1, top_k=4,
                  cache=cache)
        assert not set(self.NAMES) & set(vars(cache))
        # Each instance owns its registry (get_operator_cache hands every
        # consumer of a directory the same instance).
        other = OperatorCache(cache.directory)
        assert other.registry is not cache.registry
        assert other.stats() == dict.fromkeys(self.NAMES, 0)


class TestKeying:
    FIELDS = dict(method="localpush", decay=0.6, epsilon=0.1, top_k=8,
                  row_normalize=False, dtype=None)

    def test_key_varies_per_parameter(self, graph, cache):
        reference = cache.key_for_fields(graph, self.FIELDS)
        for variation in (dict(epsilon=0.05), dict(decay=0.7), dict(top_k=16),
                          dict(top_k=None), dict(dtype="float32"),
                          dict(method="series"), dict(row_normalize=True)):
            assert cache.key_for_fields(
                graph, {**self.FIELDS, **variation}) != reference

    def test_key_varies_per_graph(self, graph, cache):
        other = generate_synthetic_graph(SyntheticGraphConfig(
            num_nodes=120, num_classes=3, num_features=4, average_degree=6.0,
            homophily=0.3, name="cache-sbm"), seed=1)
        assert (cache.key_for_fields(graph, self.FIELDS)
                != cache.key_for_fields(other, self.FIELDS))
        # A fingerprint the caller already holds names the same key.
        assert cache.key_for_fields(other, self.FIELDS) == \
            cache.key_for_fields(graph, self.FIELDS,
                                 fingerprint=graph_fingerprint(other))

    def test_registry_shares_instances_and_counters(self, tmp_path):
        first = get_operator_cache(tmp_path / "shared")
        second = get_operator_cache(tmp_path / "shared")
        assert first is second


class TestRoundTrip:
    def test_miss_store_hit(self, graph, cache):
        kwargs = dict(method="localpush", epsilon=0.1, top_k=8,
                      num_workers=2, cache=cache)
        cold = _operator(graph, **kwargs)
        assert not cold.cache_hit
        stats = cache.stats()
        assert (stats["misses"], stats["stores"], stats["hits"]) == (1, 1, 0)
        assert len(cache) == 1

        warm = _operator(graph, **kwargs)
        assert warm.cache_hit
        assert cache.stats()["hits"] == 1
        assert warm.method == cold.method == "localpush"
        assert warm.epsilon == cold.epsilon and warm.top_k == cold.top_k
        assert np.array_equal(warm.matrix.indptr, cold.matrix.indptr)
        assert np.array_equal(warm.matrix.indices, cold.matrix.indices)
        assert np.array_equal(warm.matrix.data, cold.matrix.data)

    def test_cache_accepts_directory_path(self, graph, tmp_path):
        directory = tmp_path / "by-path"
        cold = _operator(graph, method="localpush", epsilon=0.1,
                         top_k=4, cache=directory)
        warm = _operator(graph, method="localpush", epsilon=0.1,
                         top_k=4, cache=str(directory))
        assert not cold.cache_hit and warm.cache_hit
        assert get_operator_cache(directory).stats()["hits"] == 1

    def test_worker_count_shares_one_entry(self, graph, cache):
        """num_workers is excluded from the key: the pool is deterministic."""
        cold = _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         num_workers=1, cache=cache)
        warm = _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         num_workers=4, cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert len(cache) == 1

    def test_different_epsilon_is_a_miss(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=cache)
        second = _operator(graph, method="localpush", epsilon=0.05,
                                  top_k=8, cache=cache)
        assert not second.cache_hit
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["stores"] == 2

    def test_row_normalize_is_keyed_and_verified(self, graph, cache):
        raw = _operator(graph, method="localpush", epsilon=0.1,
                               top_k=8, cache=cache)
        normalized = _operator(graph, method="localpush", epsilon=0.1,
                                      top_k=8, row_normalize=True, cache=cache)
        assert not normalized.cache_hit  # separate key, no false hit
        assert normalized.row_normalize and not raw.row_normalize
        warm = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, row_normalize=True, cache=cache)
        assert warm.cache_hit and warm.row_normalize
        sums = np.asarray(warm.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_float32_normalized_entry_keeps_its_precision(self, graph,
                                                          cache):
        """A row-normalised float32 operator is stored as float32, so its
        repeat is an exact hit and it never serves a float64 request."""
        kwargs = dict(method="localpush", epsilon=0.1, top_k=8,
                      row_normalize=True, cache=cache)
        cold = _operator(graph, dtype="float32", **kwargs)
        assert cold.matrix.dtype == np.float32
        warm = _operator(graph, dtype="float32", **kwargs)
        assert warm.cache_hit and warm.matrix.dtype == np.float32
        stats = cache.stats()
        assert (stats["exact_hits"], stats["stores"],
                stats["evictions"]) == (1, 1, 0)
        wide = _operator(graph, **kwargs)
        assert not wide.cache_hit and wide.matrix.dtype == np.float64
        assert cache.stats()["reuse_hits"] == 0

    def test_series_method_round_trips(self, graph, cache):
        cold = _operator(graph, method="series", epsilon=0.1, cache=cache)
        warm = _operator(graph, method="series", epsilon=0.1, cache=cache)
        assert warm.cache_hit
        assert warm.method == "series"
        np.testing.assert_allclose(warm.matrix.toarray(), cold.matrix.toarray())

    def test_clear_empties_the_directory(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.1, top_k=4,
                         cache=cache)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRowLookup:
    """``lookup_row``: cached all-pairs entries answer single-source
    queries (the ``cached`` rung of ``repro.serve``), counted in the
    separate ``row_hits``/``row_misses`` pair so the operator-level
    ``hits == exact_hits + reuse_hits`` invariant is untouched."""

    def test_row_hit_from_dominating_entry(self, graph, cache):
        # Prime with a tighter, un-truncated all-pairs entry …
        _operator(graph, method="localpush", epsilon=0.05, top_k=None,
                  cache=cache)
        stats = cache.stats()
        assert (stats["misses"], stats["stores"]) == (1, 1)
        served = cache.lookup_row(graph, 3, decay=0.6, epsilon=0.1,
                                  top_k=5, row_normalize=False)
        assert served is not None
        row, entry_epsilon = served
        assert entry_epsilon == 0.05  # the bound the row actually satisfies
        assert row.shape == (1, graph.num_nodes)
        # Counted only in the row pair; the operator counters (and their
        # hits == exact + reuse invariant) are untouched.
        stats = cache.stats()
        assert (stats["row_hits"], stats["row_misses"]) == (1, 0)
        assert stats["hits"] == stats["exact_hits"] + stats["reuse_hits"] == 0
        assert stats["misses"] == 1

        # The row equals slicing a full operator-level reuse of the same
        # contract — lookup_row is that reuse at O(row) cost.
        reused = _operator(graph, method="localpush", epsilon=0.1, top_k=5,
                           cache=cache)
        assert reused.cache_hit
        reference = reused.matrix.getrow(3)
        assert np.array_equal(row.indptr, reference.indptr)
        assert np.array_equal(row.indices, reference.indices)
        assert np.array_equal(row.data, reference.data)  # bitwise

    def test_row_miss_when_no_entry_dominates(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.1, top_k=4,
                  cache=cache)
        # Different decay, tighter ε and smaller stored k all miss.
        assert cache.lookup_row(graph, 3, decay=0.8, epsilon=0.1,
                                top_k=4, row_normalize=False) is None
        assert cache.lookup_row(graph, 3, decay=0.6, epsilon=0.05,
                                top_k=4, row_normalize=False) is None
        assert cache.lookup_row(graph, 3, decay=0.6, epsilon=0.1,
                                top_k=8, row_normalize=False) is None
        stats = cache.stats()
        assert (stats["row_hits"], stats["row_misses"]) == (0, 3)

    def test_row_lookup_validates_the_source(self, graph, cache):
        from repro.errors import SimRankError

        with pytest.raises(SimRankError):
            cache.lookup_row(graph, graph.num_nodes, decay=0.6, epsilon=0.1,
                             top_k=4, row_normalize=False)
        with pytest.raises(SimRankError):
            cache.lookup_row(graph, -1, decay=0.6, epsilon=0.1,
                             top_k=4, row_normalize=False)


class TestInvalidationAndCorruption:
    KWARGS = dict(method="localpush", epsilon=0.1, top_k=8, num_workers=2)

    def _entry_path(self, cache):
        paths = list(cache.directory.glob("simrank-*.npz"))
        assert len(paths) == 1
        return paths[0]

    def test_format_3_metadata_carries_no_backend_label(self, graph, cache):
        """Format 3 dropped the engine-family label from key and metadata."""
        assert CACHE_FORMAT_VERSION == 3
        _operator(graph, cache=cache, **self.KWARGS)
        with np.load(self._entry_path(cache), allow_pickle=False) as payload:
            meta = json.loads(str(payload["meta"]))
        assert meta["version"] == 3
        assert "backend" not in meta

    def test_version_mismatch_evicts_and_recomputes(self, graph, cache):
        _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        # Rewrite the stored metadata with a stale format version, keeping
        # the arrays intact — exactly what an old-format file looks like.
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = CACHE_FORMAT_VERSION - 1
        arrays["meta"] = np.asarray(json.dumps(meta))
        np.savez_compressed(path, **arrays)

        refreshed = _operator(graph, cache=cache, **self.KWARGS)
        assert not refreshed.cache_hit
        assert cache.stats()["evictions"] == 1
        # The stale file was replaced by a fresh one that now hits.
        assert _operator(graph, cache=cache, **self.KWARGS).cache_hit

    def test_metadata_mismatch_evicts(self, graph, cache):
        _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(str(arrays["meta"]))
        meta["epsilon"] = 0.99  # tampered: no longer matches the request
        arrays["meta"] = np.asarray(json.dumps(meta))
        np.savez_compressed(path, **arrays)

        refreshed = _operator(graph, cache=cache, **self.KWARGS)
        assert not refreshed.cache_hit
        assert cache.stats()["evictions"] == 1

    def test_truncated_file_evicts_and_recomputes(self, graph, cache):
        cold = _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        path.write_bytes(path.read_bytes()[:20])  # no longer a valid zip

        refreshed = _operator(graph, cache=cache, **self.KWARGS)
        assert not refreshed.cache_hit
        assert cache.stats()["evictions"] == 1
        np.testing.assert_allclose(refreshed.matrix.toarray(),
                                   cold.matrix.toarray())
        assert _operator(graph, cache=cache, **self.KWARGS).cache_hit

    def test_truncated_file_is_closed(self, graph, cache):
        """Neither the index adoption scan nor the exact load leaks the
        handle of an entry whose zip parse fails."""
        _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        path.write_bytes(path.read_bytes()[:20])
        (cache.directory / "simrank-cache-index.json").unlink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            # The lost index makes the row lookup's scan adopt the file.
            assert cache.lookup_row(graph, 0, decay=0.6, epsilon=0.1,
                                    top_k=8, row_normalize=False) is None
            assert not _operator(graph, cache=cache, **self.KWARGS).cache_hit
            gc.collect()
        assert cache.stats()["evictions"] == 1
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_garbage_bytes_evict(self, graph, cache):
        _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        path.write_bytes(b"this is not an npz archive")
        assert _operator(graph, cache=cache, **self.KWARGS).cache_hit is False
        assert cache.stats()["evictions"] == 1

    def test_missing_array_evicts(self, graph, cache):
        _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        del arrays["indices"]
        np.savez_compressed(path, **arrays)
        assert _operator(graph, cache=cache, **self.KWARGS).cache_hit is False
        assert cache.stats()["evictions"] == 1

    def test_stored_file_is_a_plain_zip(self, graph, cache):
        """The on-disk entry stays inspectable with stock tooling."""
        _operator(graph, cache=cache, **self.KWARGS)
        with zipfile.ZipFile(self._entry_path(cache)) as archive:
            names = set(archive.namelist())
        assert {"data.npy", "indices.npy", "indptr.npy",
                "shape.npy", "meta.npy"} <= names


class TestConcurrentWrites:
    """Threads sharing one cache: every store lands, the index keeps up."""

    THREADS = max(8, 2 * (os.cpu_count() or 1))  # more threads than cores
    # About 200 stores in all: each store rescans the directory, so the
    # run time stays bounded however many cores the host has.
    STORES_PER_THREAD = max(2, 200 // THREADS)

    def test_concurrent_stores_all_succeed_and_are_indexed(self, graph,
                                                           cache):
        operator = _operator(graph, method="localpush", epsilon=0.1, top_k=4)
        errors = []

        def writer(thread):
            for index in range(self.STORES_PER_THREAD):
                try:
                    cache.store(f"t{thread}-{index}", operator,
                                fingerprint="concurrent")
                except Exception as error:  # collected, asserted below
                    errors.append(error)

        threads = [threading.Thread(target=writer, args=(thread,))
                   for thread in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent thread switches
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        expected = {f"t{thread}-{index}" for thread in range(self.THREADS)
                    for index in range(self.STORES_PER_THREAD)}
        assert cache.stats()["stores"] == len(expected)
        assert len(cache) == len(expected)
        index = json.loads(
            (cache.directory / "simrank-cache-index.json").read_text())
        assert set(index["entries"]) == expected
        assert not list(cache.directory.glob("*.tmp*"))


class TestExperimentIntegration:
    """Acceptance criterion: a warm cache skips Fig. 5 precompute."""

    FIG5_KWARGS = dict(num_sizes=1, base_scale=0.05, models=("sigma",),
                       config=QUICK_EXPERIMENT_CONFIG, seed=0)

    def test_fig5_warm_cache_skips_precompute(self, tmp_path):
        directory = tmp_path / "fig5-cache"
        cache = get_operator_cache(directory)
        simrank = SIGMA_DEFAULT_SIMRANK.with_overrides(cache_dir=str(directory))

        cold = run_experiment("fig5", simrank=simrank, print_result=False,
                              **self.FIG5_KWARGS)
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["stores"] == 1

        warm = run_experiment("fig5", simrank=simrank, print_result=False,
                              **self.FIG5_KWARGS)
        # The repeated run was served entirely from the cache …
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["stores"] == 1  # … and did not recompute anything.

        cold_precompute = cold.points[0].precompute_seconds
        warm_precompute = warm.points[0].precompute_seconds
        assert warm_precompute < cold_precompute

    def test_table3_measured_precompute_uses_cache(self, tmp_path):
        directory = tmp_path / "table3-cache"
        kwargs = dict(scale_factor=0.05, measure_precompute=True,
                      simrank=SimRankConfig(cache_dir=str(directory)))
        run_experiment("table3", "pokec", print_result=False, **kwargs)
        run_experiment("table3", "pokec", print_result=False, **kwargs)
        assert get_operator_cache(directory).stats()["hits"] == 1

    def test_cli_exposes_cache_and_worker_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "--simrank-workers", "4",
            "--simrank-cache-dir", "/tmp/simrank-cache",
        ])
        assert args.simrank_workers == 4
        assert args.simrank_cache_dir == "/tmp/simrank-cache"

    def test_cli_rejects_simrank_flags_for_non_sigma_models(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--model", "glognn", "--dataset", "texas",
                  "--simrank-workers", "2"])
        assert "only supported by SIGMA models" in capsys.readouterr().err


@pytest.mark.slow
class TestCacheStress:
    def test_large_operator_round_trip(self, tmp_path):
        graph = generate_synthetic_graph(SyntheticGraphConfig(
            num_nodes=2000, num_classes=3, num_features=4, average_degree=6.0,
            homophily=0.3, name="cache-large"), seed=3)
        cache = get_operator_cache(tmp_path / "large")
        kwargs = dict(method="localpush", epsilon=0.1, top_k=16,
                      num_workers=2, cache=cache)
        cold = _operator(graph, **kwargs)
        warm = _operator(graph, **kwargs)
        assert warm.cache_hit
        assert np.array_equal(warm.matrix.data, cold.matrix.data)
        assert warm.precompute_seconds < cold.precompute_seconds
