"""Suite for the operator-cache eviction and reuse policy.

Covers the two policies added on top of the PR-2 round-trip cache:

* **LRU eviction under a byte cap** — stores beyond ``max_bytes`` evict
  the least-recently-used entries (exact and reuse hits refresh
  recency), counted separately (``lru_evictions``) from corruption
  evictions.
* **Cross-ε / cross-k reuse** — an entry computed at tighter ``ε′ ≤ ε``
  with ``k′ ≥ k`` serves the looser request after re-pruning; the
  reverse direction never hits.  Reuse hits (``reuse_hits``) are
  distinguished from exact key hits (``exact_hits``).
"""

import numpy as np
import pytest

from repro.config import SimRankConfig
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.errors import ConfigError
from repro.graphs.graph import Graph
from repro.graphs.sparse import top_k_per_row
from repro.simrank.cache import OperatorCache, get_operator_cache
from repro.simrank.topk import simrank_operator


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
        homophily=0.3, name="cache-policy-sbm")
    return generate_synthetic_graph(config, seed=0)


@pytest.fixture()
def cache(tmp_path) -> OperatorCache:
    # Via the registry so the instance the pipeline resolves from
    # ``cache_dir`` is this one (shared counters).
    return get_operator_cache(tmp_path / "operators")


def _entry_bytes(cache: OperatorCache) -> int:
    return sum(path.stat().st_size
               for path in cache.directory.glob("simrank-*.npz"))


class TestLRUEviction:
    def test_stores_over_the_cap_evict_oldest(self, graph, cache):
        first = _operator(graph, method="localpush", epsilon=0.2,
                                 top_k=8, cache=cache)
        assert not first.cache_hit
        cache.max_bytes = _entry_bytes(cache) + 16  # room for exactly one
        # A tighter request cannot reuse the looser entry: genuine
        # miss → store → the byte cap evicts the ε=0.2 entry.
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=cache)
        assert len(cache) == 1
        assert cache.stats()["lru_evictions"] == 1
        assert _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, cache=cache).cache_hit
        # The evicted ε=0.2/k=8 file is gone: a k=16 request at ε=0.2
        # cannot be served by the surviving k=8 entry either.
        refetch = _operator(graph, method="localpush", epsilon=0.2,
                                   top_k=16, cache=cache)
        assert not refetch.cache_hit

    @pytest.mark.parametrize("touch,kind", [
        (dict(epsilon=0.2, top_k=8), "exact_hits"),
        # Both entries dominate ε = 0.3; the closest, A, serves it.
        (dict(epsilon=0.3, top_k=8), "reuse_hits"),
    ], ids=["exact", "reuse"])
    def test_exact_hits_refresh_recency(self, graph, cache, touch, kind):
        # Stored tightest-last so every store is a genuine miss.
        _operator(graph, method="localpush", epsilon=0.2, top_k=8,
                         cache=cache)  # A
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=cache)  # B
        size_two = _entry_bytes(cache)
        # Touch A so B becomes least recently used.
        assert _operator(graph, method="localpush", cache=cache,
                         **touch).cache_hit
        assert cache.stats()[kind] == 1
        cache.max_bytes = size_two * 5 // 4  # room for two entries, not three
        _operator(graph, method="localpush", epsilon=0.05, top_k=8,
                         cache=cache)  # C — evicts B, not A
        assert cache.stats()["lru_evictions"] == 1
        assert len(cache) == 2
        hits_before = cache.stats()["exact_hits"]
        assert _operator(graph, method="localpush", epsilon=0.2,
                                top_k=8, cache=cache).cache_hit
        assert cache.stats()["exact_hits"] == hits_before + 1

    def test_single_oversized_entry_is_retained(self, graph, cache):
        cache.max_bytes = 1  # smaller than any entry
        cold = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, cache=cache)
        assert not cold.cache_hit
        assert len(cache) == 1  # the just-stored entry survives the cap
        assert _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, cache=cache).cache_hit

    def test_corruption_evictions_counted_separately(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=cache)
        path = next(cache.directory.glob("simrank-*.npz"))
        path.write_bytes(b"garbage")
        refreshed = _operator(graph, method="localpush", epsilon=0.1,
                                     top_k=8, cache=cache)
        assert not refreshed.cache_hit
        stats = cache.stats()
        assert (stats["evictions"], stats["lru_evictions"]) == (1, 0)

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            OperatorCache(tmp_path / "bad", max_bytes=0)

    def test_invalid_cap_rejected_on_late_update_too(self, graph, tmp_path):
        """Every route that updates the cap validates it — a zero cap on a
        memoised instance must not silently evict the whole directory."""
        cache = OperatorCache(tmp_path / "late")
        with pytest.raises(ValueError):
            cache.max_bytes = 0
        with pytest.raises(ValueError):
            get_operator_cache(cache.directory, max_bytes=-5)
        with pytest.raises(ValueError):
            _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                             cache=cache, cache_max_bytes=-1)

    def test_cap_reaches_shared_instance_through_pipeline(self, graph, tmp_path):
        directory = tmp_path / "capped"
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=str(directory), cache_max_bytes=123456)
        assert get_operator_cache(directory).max_bytes == 123456


class TestCrossEpsilonReuse:
    def test_tighter_epsilon_serves_looser_request(self, graph, cache):
        cold = _operator(graph, method="localpush", epsilon=0.05,
                                top_k=8, cache=cache)
        warm = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, cache=cache)
        assert warm.cache_hit
        stats = cache.stats()
        assert stats["reuse_hits"] == 1 and stats["exact_hits"] == 0
        assert stats["stores"] == 1  # nothing recomputed
        # Same k: the tighter entry is served as-is, with the request's ε.
        assert warm.epsilon == 0.1
        assert warm.reuse_source_epsilon == 0.05
        np.testing.assert_array_equal(warm.matrix.toarray(),
                                      cold.matrix.toarray())

    def test_looser_epsilon_never_serves_tighter_request(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.2, top_k=8,
                         cache=cache)
        second = _operator(graph, method="localpush", epsilon=0.05,
                                  top_k=8, cache=cache)
        assert not second.cache_hit
        stats = cache.stats()
        assert stats["reuse_hits"] == 0 and stats["stores"] == 2

    def test_larger_k_serves_smaller_k_after_reprune(self, graph, cache):
        cold = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=16, cache=cache)
        warm = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, cache=cache)
        assert warm.cache_hit and cache.stats()["reuse_hits"] == 1
        assert warm.top_k == 8 and warm.reuse_source_top_k == 16
        assert np.diff(warm.matrix.indptr).max() <= 8
        expected = top_k_per_row(cold.matrix, 8, keep_diagonal=True)
        np.testing.assert_array_equal(warm.matrix.toarray(),
                                      expected.toarray())

    def test_smaller_k_never_serves_larger_k(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=cache)
        second = _operator(graph, method="localpush", epsilon=0.1,
                                  top_k=16, cache=cache)
        assert not second.cache_hit
        assert cache.stats()["reuse_hits"] == 0

    def test_full_matrix_reuse_refloors_the_prune(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.05,
                         top_k=None, cache=cache)
        warm = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=None, cache=cache)
        assert warm.cache_hit and cache.stats()["reuse_hits"] == 1
        offdiag = warm.matrix.copy().tolil()
        offdiag.setdiag(0)
        values = offdiag.tocsr()
        values.eliminate_zeros()
        if values.nnz:
            assert values.data.min() >= 0.1 / 10.0
        assert (warm.matrix.diagonal() > 0).all()

    def test_topk_entry_never_serves_full_matrix_request(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.05, top_k=8,
                         cache=cache)
        second = _operator(graph, method="localpush", epsilon=0.1,
                                  top_k=None, cache=cache)
        assert not second.cache_hit

    def test_row_normalize_must_match(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.05, top_k=16,
                         cache=cache)
        normalized = _operator(graph, method="localpush", epsilon=0.1,
                                      top_k=8, row_normalize=True,
                                      cache=cache)
        assert not normalized.cache_hit  # raw entries never serve normalized
        warm = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=4, row_normalize=True, cache=cache)
        assert warm.cache_hit and cache.stats()["reuse_hits"] == 1
        sums = np.asarray(warm.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_reuse_prefers_the_closest_dominating_entry(self, graph, cache):
        # Stored loosest-first so both are genuine stores.
        _operator(graph, method="localpush", epsilon=0.08, top_k=8,
                         cache=cache)
        _operator(graph, method="localpush", epsilon=0.02, top_k=8,
                         cache=cache)
        assert cache.stats()["stores"] == 2
        warm = _operator(graph, method="localpush", epsilon=0.1,
                                top_k=8, cache=cache)
        assert warm.cache_hit
        assert warm.reuse_source_epsilon == 0.08  # largest ε′ ≤ ε wins

    def test_reuse_does_not_cross_graphs(self, graph, cache):
        other = generate_synthetic_graph(SyntheticGraphConfig(
            num_nodes=120, num_classes=3, num_features=4, average_degree=6.0,
            homophily=0.3, name="cache-policy-sbm"), seed=1)
        _operator(graph, method="localpush", epsilon=0.05, top_k=8,
                         cache=cache)
        second = _operator(other, method="localpush", epsilon=0.1,
                                  top_k=8, cache=cache)
        assert not second.cache_hit

    def test_counters_are_consistent(self, graph, cache):
        _operator(graph, method="localpush", epsilon=0.05, top_k=8,
                         cache=cache)  # miss + store
        _operator(graph, method="localpush", epsilon=0.05, top_k=8,
                         cache=cache)  # exact hit
        _operator(graph, method="localpush", epsilon=0.1, top_k=8,
                         cache=cache)  # reuse hit
        _operator(graph, method="localpush", epsilon=0.01, top_k=8,
                         cache=cache)  # miss + store
        stats = cache.stats()
        assert stats["exact_hits"] == 1
        assert stats["reuse_hits"] == 1
        assert stats["hits"] == stats["exact_hits"] + stats["reuse_hits"] == 2
        assert stats["misses"] == 2
        assert stats["stores"] == 2
