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

import builtins
import gc
import io
import json
import os
import re
import sys
import threading
import time
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import SIGMA_DEFAULT_SIMRANK, SimRankConfig
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.experiments import run_experiment
from repro.experiments.common import QUICK_EXPERIMENT_CONFIG
from repro.graphs.fingerprint import payload_digest
from repro.graphs.graph import Graph
from repro.simrank.cache import (
    CACHE_FORMAT_VERSION,
    OperatorCache,
    get_operator_cache,
    graph_fingerprint,
)
from repro.simrank.topk import SimRankOperator, simrank_operator

#: What a format-4 entry is named: ``simrank-<fingerprint>-<key>.npz``.
ENTRY_NAME = re.compile(r"simrank-[0-9a-f]{64}-[0-9a-f]{32}\.npz")


def _operator(graph, *, cache=None, cache_max_bytes=None, **fields):
    """``simrank_operator`` via the config API, with a cache handle."""
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


@pytest.fixture()
def opened(monkeypatch) -> list:
    """Paths opened through ``open`` while the test runs, in order.

    ``io.open`` is wrapped too: pathlib's reads and writes go through it.
    """
    paths = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int):
            paths.append(Path(os.fspath(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    return paths


def _names_in(directory, paths) -> list:
    return [path.name for path in paths if path.parent == directory]


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
        kwargs = dict(method="localpush", epsilon=0.1, top_k=8, cache=cache)
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


class TestEntryCompression:
    """An entry holds ``np.savez_compressed``'s members at zlib level 1."""

    KWARGS = dict(method="localpush", epsilon=0.05)

    @staticmethod
    def _entry(cache):
        (path,) = cache.directory.glob("simrank-*.npz")
        return path

    def test_a_stored_entry_loads_back_bitwise(self, graph, cache):
        cold = _operator(graph, cache=cache, **self.KWARGS)
        with zipfile.ZipFile(self._entry(cache)) as archive:
            members = archive.infolist()
        assert sorted(member.filename for member in members) == [
            "data.npy", "indices.npy", "indptr.npy", "meta.npy", "shape.npy"]
        assert {member.compress_type for member in members} == {
            zipfile.ZIP_DEFLATED}
        warm = _operator(graph, cache=cache, **self.KWARGS)
        assert warm.cache_hit and cache.stats()["exact_hits"] == 1
        for name in ("indptr", "indices", "data"):
            stored, loaded = (getattr(cold.matrix, name),
                              getattr(warm.matrix, name))
            assert loaded.dtype == stored.dtype
            assert np.array_equal(loaded, stored)

    def test_an_entry_at_the_default_level_still_serves_a_hit(self, graph,
                                                              cache):
        """Entries written by ``np.savez_compressed`` (zlib level 6) load."""
        cold = _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry(cache)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        np.savez_compressed(path, **arrays)
        warm = _operator(graph, cache=cache, **self.KWARGS)
        assert warm.cache_hit
        stats = cache.stats()
        assert (stats["exact_hits"], stats["evictions"]) == (1, 0)
        assert np.array_equal(warm.matrix.indptr, cold.matrix.indptr)
        assert np.array_equal(warm.matrix.indices, cold.matrix.indices)
        assert np.array_equal(warm.matrix.data, cold.matrix.data)


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
    KWARGS = dict(method="localpush", epsilon=0.1, top_k=8)

    def _entry_path(self, cache):
        paths = list(cache.directory.glob("simrank-*.npz"))
        assert len(paths) == 1
        return paths[0]

    def test_format_4_metadata_carries_no_backend_label(self, graph, cache):
        """Format 3 dropped the engine-family label from key and metadata;
        format 4 (entries named by graph fingerprint) keeps it out."""
        assert CACHE_FORMAT_VERSION == 4
        _operator(graph, cache=cache, **self.KWARGS)
        with np.load(self._entry_path(cache), allow_pickle=False) as payload:
            meta = json.loads(str(payload["meta"]))
        assert meta["version"] == 4
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
        """Neither the reuse scan nor the exact load leaks the handle of
        an entry whose zip parse fails."""
        _operator(graph, cache=cache, **self.KWARGS)
        path = self._entry_path(cache)
        path.write_bytes(path.read_bytes()[:20])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            # The row lookup's reuse scan reads the file's metadata.
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

    def test_a_format_3_entry_is_never_read(self, graph, cache, opened):
        """A file format 3 wrote on the same graph, with fields matching
        the requests, serves neither by exact key nor by reuse.  It still
        counts toward a byte cap, as the first LRU victim, and ``clear``
        deletes it; format 3's index file is left in place."""
        fingerprint = graph_fingerprint(graph)
        operator = _operator(graph, **self.KWARGS)
        fields = {"method": "localpush", "decay": operator.decay,
                  "epsilon": 0.1, "top_k": 8, "row_normalize": False}
        legacy_key = payload_digest(
            {"version": 3, "graph": fingerprint, **fields})
        legacy = cache.directory / f"simrank-{legacy_key}.npz"

        def write_legacy():
            matrix = operator.matrix
            meta = {"version": 3, "fingerprint": fingerprint, **fields,
                    "dtype": None, "precompute_seconds": 0.0}
            np.savez_compressed(
                legacy, data=matrix.data, indices=matrix.indices,
                indptr=matrix.indptr,
                shape=np.asarray(matrix.shape, dtype=np.int64),
                meta=np.asarray(json.dumps(meta)))
            an_hour_ago = time.time_ns() - 3600 * 10**9
            os.utime(legacy, ns=(an_hour_ago, an_hour_ago))

        write_legacy()
        index = cache.directory / "simrank-cache-index.json"
        index.write_text(json.dumps({"version": 3, "clock": 1, "entries": {
            legacy_key: {**fields, "fingerprint": fingerprint}}}))
        opened.clear()

        # The legacy entry dominates the looser request and matches the
        # exact one; both miss.
        looser = _operator(graph, cache=cache, **{**self.KWARGS,
                                                  "epsilon": 0.2})
        exact = _operator(graph, cache=cache, **self.KWARGS)
        assert not looser.cache_hit and not exact.cache_hit
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["stores"],
                stats["evictions"]) == (0, 2, 2, 0)
        assert {legacy.name, index.name}.isdisjoint(
            _names_in(cache.directory, opened))
        assert len(cache) == 3

        entries = list(cache.directory.glob(f"simrank-{fingerprint}-*.npz"))
        cache.max_bytes = sum(path.stat().st_size for path in entries)
        # Re-storing one entry walks the directory; the legacy file alone
        # puts it over the cap, and its old stamp makes it the victim.
        cache.store_delta(graph, {**fields, "dtype": None}, exact)
        assert cache.stats()["lru_evictions"] == 1
        assert not legacy.exists()
        assert all(path.exists() for path in entries)

        write_legacy()
        assert cache.clear() == 3
        assert index.exists()


class TestConcurrentWrites:
    """Threads sharing one cache: every store lands, every eviction is
    counted once."""

    THREADS = max(8, 2 * (os.cpu_count() or 1))  # more threads than cores
    # About 200 stores in all, so the run time stays bounded however many
    # cores the host has.
    STORES_PER_THREAD = max(2, 200 // THREADS)
    #: The capped test's byte cap, in entries.
    CAPPED_ENTRIES = 3

    def _store_concurrently(self, cache, operator):
        """Every thread stores its own keys; returns the errors raised."""
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
        return errors

    def test_concurrent_stores_all_succeed_and_land_on_disk(self, graph,
                                                            cache):
        operator = _operator(graph, method="localpush", epsilon=0.1, top_k=4)
        assert self._store_concurrently(cache, operator) == []
        expected = {f"t{thread}-{index}" for thread in range(self.THREADS)
                    for index in range(self.STORES_PER_THREAD)}
        assert cache.stats()["stores"] == len(expected)
        assert len(cache) == len(expected)
        assert {path.name for path in cache.directory.iterdir()} == {
            cache.path_for(key, "concurrent").name for key in expected}

    def test_concurrent_capped_stores_count_each_eviction_once(self, graph,
                                                               cache):
        """The capped walk runs under the instance lock, so no two
        threads evict, and count, the same victim."""
        operator = _operator(graph, method="localpush", epsilon=0.1, top_k=4)
        probe = cache.store("probe", operator, fingerprint="concurrent")
        cache.max_bytes = self.CAPPED_ENTRIES * probe.stat().st_size
        assert self._store_concurrently(cache, operator) == []
        stats = cache.stats()
        assert stats["stores"] == 1 + self.THREADS * self.STORES_PER_THREAD
        assert stats["lru_evictions"] + len(cache) == stats["stores"]
        assert len(cache) <= self.CAPPED_ENTRIES
        assert not list(cache.directory.glob("*.tmp*"))


class TestTheDirectoryIsTheRecord:
    """One file per entry and no other file; a lookup opens only its own
    graph's entries."""

    def test_the_cache_writes_only_entries(self, graph, cache):
        kwargs = dict(method="localpush", top_k=8, cache=cache)
        assert not _operator(graph, epsilon=0.1, **kwargs).cache_hit
        assert _operator(graph, epsilon=0.1, **kwargs).cache_hit  # exact
        assert _operator(graph, epsilon=0.2, **kwargs).cache_hit  # reuse
        next(cache.directory.glob("simrank-*.npz")).write_bytes(b"garbage")
        assert not _operator(graph, epsilon=0.1, **kwargs).cache_hit
        cache.max_bytes = 1
        assert not _operator(graph, epsilon=0.05, **kwargs).cache_hit
        stats = cache.stats()
        assert (stats["exact_hits"], stats["reuse_hits"], stats["evictions"],
                stats["lru_evictions"]) == (1, 1, 1, 1)
        names = [path.name for path in cache.directory.iterdir()]
        assert [name for name in names if not ENTRY_NAME.fullmatch(name)] \
            == []
        assert len(names) == 1

    def test_a_hit_or_a_scan_opens_only_its_graphs_entries(self, graph,
                                                           cache, opened):
        kwargs = dict(method="localpush", top_k=8, cache=cache)
        operator = _operator(graph, epsilon=0.1, top_k=8)
        for other in range(50):
            cache.store(f"{other:032x}", operator,
                        fingerprint=f"{other:064x}")
        _operator(graph, epsilon=0.1, **kwargs)
        _operator(graph, epsilon=0.05, **kwargs)
        fingerprint = graph_fingerprint(graph)
        own = sorted(path.name for path in cache.directory.glob(
            f"simrank-{fingerprint}-*.npz"))
        assert len(own) == 2 and cache.stats()["stores"] == 52

        opened.clear()
        assert _operator(graph, epsilon=0.1, **kwargs).cache_hit
        key = cache.key_for_fields(graph, SimRankConfig(
            method="localpush", epsilon=0.1,
            top_k=8).cache_key_fields(graph.num_nodes))
        assert _names_in(cache.directory, opened) == [
            cache.path_for(key, fingerprint).name]

        opened.clear()
        assert cache.lookup(graph, method="localpush", decay=0.6,
                            epsilon=0.02, top_k=8,
                            row_normalize=False) is None
        assert sorted(_names_in(cache.directory, opened)) == own


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
        result = run_experiment("table3", "pokec", print_result=False,
                                **kwargs)
        assert get_operator_cache(directory).stats()["hits"] == 1
        assert set(result.measured_precompute) == {"localpush"}

    def test_cli_exposes_cache_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "--simrank-cache-dir", "/tmp/simrank-cache",
            "--simrank-cache-max-bytes", "4096",
        ])
        assert args.simrank_cache_dir == "/tmp/simrank-cache"
        assert args.simrank_cache_max_bytes == 4096

    def test_cli_rejects_simrank_flags_for_non_sigma_models(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--model", "glognn", "--dataset", "texas",
                  "--simrank-cache-dir", "/tmp/simrank-cache"])
        assert "only supported by SIGMA models" in capsys.readouterr().err


def _path_graph(weight: float) -> Graph:
    """A 3-node path whose first edge weighs ``weight`` (one fingerprint
    per weight)."""
    return Graph(np.array([[0.0, weight, 0.0], [weight, 0.0, 1.0],
                           [0.0, 1.0, 0.0]]))


class TestCappedSoak:
    """Store-and-lookup cycles under a cap of about 20 entries, judged by
    counts: the directory stays inside its budget, every eviction is
    counted once, and every exact hit opens one file however many
    cycles ran."""

    CAPPED_ENTRIES = 20
    FIELDS = dict(method="localpush", decay=0.6, epsilon=0.1, top_k=None,
                  row_normalize=False, dtype=None)
    OPERATOR = SimRankOperator(matrix=sp.identity(3, format="csr"),
                               method="localpush", decay=0.6, epsilon=0.1,
                               top_k=None, precompute_seconds=0.0)

    def _soak(self, directory, cycles, opened):
        probe = OperatorCache(directory / "probe").store_delta(
            _path_graph(0.5), self.FIELDS, self.OPERATOR)
        cache = OperatorCache(directory / "soak",
                              max_bytes=self.CAPPED_ENTRIES
                              * probe.stat().st_size)
        for cycle in range(cycles):
            graph = _path_graph(1.0 + cycle)
            cache.store_delta(graph, self.FIELDS, self.OPERATOR)
            assert len(cache) <= self.CAPPED_ENTRIES + 1
            opened.clear()
            assert cache.lookup(graph, **self.FIELDS) is not None
            assert len(_names_in(cache.directory, opened)) == 1
        stats = cache.stats()
        assert stats["stores"] == stats["exact_hits"] == cycles
        assert stats["lru_evictions"] == cycles - len(cache)

    def test_short_soak(self, tmp_path, opened):
        self._soak(tmp_path, 500, opened)

    @pytest.mark.slow
    def test_long_soak(self, tmp_path, opened):
        self._soak(tmp_path, 10_000, opened)


@pytest.mark.slow
class TestCacheStress:
    def test_large_operator_round_trip(self, tmp_path):
        graph = generate_synthetic_graph(SyntheticGraphConfig(
            num_nodes=2000, num_classes=3, num_features=4, average_degree=6.0,
            homophily=0.3, name="cache-large"), seed=3)
        cache = get_operator_cache(tmp_path / "large")
        kwargs = dict(method="localpush", epsilon=0.1, top_k=16, cache=cache)
        cold = _operator(graph, **kwargs)
        warm = _operator(graph, **kwargs)
        assert warm.cache_hit
        assert np.array_equal(warm.matrix.data, cold.matrix.data)
        assert warm.precompute_seconds < cold.precompute_seconds
