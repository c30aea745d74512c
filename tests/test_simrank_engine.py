"""Suite for the unified LocalPush engine core and its worker count.

Pins the properties of the engine core:

* every worker count (``num_workers`` 1 = inline, 2, 3, …) produces a
  **bit-identical** matrix, top-k pruned or not,
* :func:`repro.simrank.localpush.resolve_workers` maps ``None`` onto the
  node-count ladder and passes explicit counts through, and
* the operator pipeline accepts ``workers=`` and serves the same
  operator regardless of it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from _simrank_fixtures import (
    disconnected as _disconnected,
    erdos_renyi as _erdos_renyi,
    sbm as _sbm,
    star as _star,
    weighted as _weighted,
)
from _simrank_oracles import dict_localpush
from repro.errors import SimRankError
from repro.graphs.sparse import top_k_per_row
from repro.simrank.engine import default_num_workers, localpush_engine
from repro.simrank.localpush import (
    AUTO_SHARDED_MIN_NODES,
    localpush_simrank,
    resolve_workers,
)


def _assert_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)  # bitwise, no tolerance


EQUIVALENCE_GRAPHS = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), id="erdos-renyi-60"),
    pytest.param(lambda: _sbm(150, seed=2), id="sbm-150"),
    pytest.param(lambda: _weighted(40, seed=12), id="weighted-40"),
    pytest.param(_disconnected, id="disconnected"),
    pytest.param(lambda: _star(12), id="star-12"),
]


class TestWorkerEquivalence:
    """Bit-identical output across worker counts — pinned, not approximate."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_every_worker_count_identical_on_equivalence_suite(self,
                                                               make_graph):
        graph = make_graph()
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      num_shards=3)
        results = {workers: localpush_engine(graph, num_workers=workers,
                                             **kwargs)
                   for workers in (1, 2, 3)}
        for workers in (2, 3):
            _assert_identical(results[1].matrix, results[workers].matrix)

    def test_pooled_workers_match_serial(self):
        graph = _sbm(200, seed=5)
        # num_shards forces multi-shard rounds so the pool actually engages.
        serial = localpush_engine(graph, epsilon=0.05, prune=False,
                                  num_shards=6)
        pooled = localpush_engine(graph, epsilon=0.05, prune=False,
                                  num_workers=2, num_shards=6)
        _assert_identical(serial.matrix, pooled.matrix)
        assert serial.num_pushes == pooled.num_pushes
        assert serial.num_rounds == pooled.num_rounds

    def test_topk_pruned_matrix_identical_across_worker_counts(self):
        graph = _sbm(200, seed=7)
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      num_shards=5)
        serial = top_k_per_row(localpush_engine(graph, **kwargs).matrix, 6,
                               keep_diagonal=True)
        pooled = top_k_per_row(
            localpush_engine(graph, num_workers=2, **kwargs).matrix, 6,
            keep_diagonal=True)
        _assert_identical(serial, pooled)
        assert np.diff(pooled.indptr).max() <= 6
        assert (pooled.diagonal() > 0).all()

    def test_matches_dict_oracle_within_epsilon(self):
        graph = _erdos_renyi(80, 0.07, seed=8)
        oracle = dict_localpush(graph, epsilon=0.05, prune=False)
        core = localpush_engine(graph, epsilon=0.05, prune=False,
                                num_workers=2, num_shards=3)
        diff = np.abs((oracle.matrix - core.matrix).toarray()).max()
        assert diff < 0.05

    def test_result_metadata(self):
        graph = _sbm(150, seed=9)
        result = localpush_engine(graph, epsilon=0.1, num_workers=2,
                                  num_shards=3)
        assert result.num_workers == 2
        assert result.num_shards == 3
        assert result.num_rounds is not None and result.num_rounds > 0
        assert not hasattr(result, "executor")
        assert localpush_engine(graph, epsilon=0.1).num_workers == 1

    @pytest.mark.parametrize("workers", [0, -2, None, True, 2.0])
    def test_invalid_worker_counts_rejected(self, tiny_graph, workers):
        with pytest.raises(SimRankError, match="num_workers"):
            localpush_engine(tiny_graph, epsilon=0.1, num_workers=workers)


class TestResolveWorkers:
    """Worker auto-resolution: inline below the threshold, a pool above."""

    def test_threshold_is_pinned(self):
        assert AUTO_SHARDED_MIN_NODES == 4096

    def test_auto_ladder(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(None, AUTO_SHARDED_MIN_NODES - 1) == 1
        assert resolve_workers(None, AUTO_SHARDED_MIN_NODES) \
            == default_num_workers()

    def test_explicit_worker_counts_pass_through(self):
        for workers in (1, 2, 3):
            assert resolve_workers(workers, 10) == workers
            assert resolve_workers(workers, 10**6) == workers

    def test_explicit_invalid_count_is_rejected(self, tiny_graph):
        with pytest.raises(SimRankError, match="num_workers"):
            localpush_simrank(tiny_graph, epsilon=0.1, num_workers=0)

    def test_auto_dispatch_uses_the_pool_above_threshold(self, monkeypatch):
        import repro.simrank.localpush as localpush_module

        monkeypatch.setattr(localpush_module, "AUTO_SHARDED_MIN_NODES", 100)
        result = localpush_simrank(_sbm(150, seed=12), epsilon=0.1)
        assert result.num_workers == default_num_workers()

    def test_small_graphs_run_the_core_inline(self):
        """No graph size falls back to a per-pair loop any more."""
        small = _erdos_renyi(50, 0.1, seed=13)
        result = localpush_simrank(small, epsilon=0.1)
        assert result.num_workers == 1
        _assert_identical(result.matrix,
                          localpush_engine(small, epsilon=0.1).matrix)

    def test_localpush_simrank_accepts_num_workers(self):
        graph = _sbm(150, seed=10)
        result = localpush_simrank(graph, epsilon=0.1, num_workers=2)
        assert result.num_workers == 2
        serial = localpush_simrank(graph, epsilon=0.1, num_workers=1)
        assert serial.num_workers == 1
        _assert_identical(result.matrix, serial.matrix)


class TestOperatorPipelineWorkers:
    def test_operator_identical_across_worker_counts(self):
        from repro.simrank.topk import simrank_operator

        from repro.config import SimRankConfig

        graph = _sbm(150, seed=14)
        serial = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, workers=1))
        pooled = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, workers=2))
        _assert_identical(serial.matrix, pooled.matrix)
        assert np.diff(pooled.matrix.indptr).max() <= 4


@pytest.mark.slow
class TestEngineStress:
    """Large-graph worker equivalence; excluded from the fast default."""

    def test_large_graph_worker_counts_bit_identical(self):
        graph = _sbm(2000, seed=20)
        serial = localpush_engine(graph, epsilon=0.1, prune=False)
        pooled = localpush_engine(graph, epsilon=0.1, prune=False,
                                  num_workers=4)
        _assert_identical(serial.matrix, pooled.matrix)
        assert serial.num_shards >= 2  # the frontier actually sharded
